package results

import (
	"bytes"
	"strings"
	"testing"
)

func testArtifact() *Artifact {
	a := NewArtifact("sweep", "threshold", 0.02, 1)
	a.Add(Result{
		ID: "raytrace/thr4-6/proposed", Workload: "raytrace", Policy: "proposed", Seed: 1,
		Params: map[string]float64{"read_threshold": 4, "write_threshold": 6},
		Pages:  1200, DRAMPages: 90, NVMPages: 810,
		Metrics: &Metrics{AMATTotalNS: 123.5, AMATMigrationsNS: 23.5, PowerStaticNJ: 9.25},
		Values:  map[string]float64{"amat_vs_clock_dwf": 0.4},
	})
	return a
}

func TestArtifactRoundTrip(t *testing.T) {
	a := testArtifact()
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.Tool != "sweep" || got.Kind != "threshold" {
		t.Errorf("header mangled: %+v", got)
	}
	if len(got.Results) != 1 {
		t.Fatalf("got %d results", len(got.Results))
	}
	r := got.Results[0]
	if r.ID != "raytrace/thr4-6/proposed" || r.Metrics == nil || r.Metrics.AMATTotalNS != 123.5 || r.Metrics.AMATMigrationsNS != 23.5 {
		t.Errorf("result mangled: %+v", r)
	}
	if r.Params["write_threshold"] != 6 || r.Values["amat_vs_clock_dwf"] != 0.4 {
		t.Errorf("maps mangled: %+v", r)
	}
}

func TestArtifactEncodingIsStable(t *testing.T) {
	// Two encodings of equal artifacts are byte-identical (struct field
	// order is fixed and encoding/json sorts map keys).
	a, b := testArtifact(), testArtifact()
	ab, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Error("encodings differ")
	}
	if ab[len(ab)-1] != '\n' {
		t.Error("missing trailing newline")
	}
}

func TestReadArtifactRejectsWrongSchema(t *testing.T) {
	if _, err := ReadArtifact(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := ReadArtifact(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestArtifactOmitsEmptyFields(t *testing.T) {
	a := NewArtifact("sweep", "wearlevel", 0.02, 1)
	a.Add(Result{ID: "vips/startgap64", Seed: 1, Values: map[string]float64{"gap_moves": 3}})
	b, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, absent := range []string{"metrics", "params", "workload", "dram_pages"} {
		if strings.Contains(s, `"`+absent+`"`) {
			t.Errorf("empty field %q serialized:\n%s", absent, s)
		}
	}
}

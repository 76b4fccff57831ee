package obs

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hybridmem/internal/results"
)

func adminGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("tierd_test_total", "test", 1, L("tenant", "a")).Add(0, 5)
	ring := NewEventRing(64)
	ring.Publish(Event{Epoch: 1, Page: 7, Tenant: 2, Node: 1, From: TierNVM, To: TierDRAM, Reason: ReasonPromotion})
	var ready atomic.Bool
	a, err := NewAdmin(AdminConfig{
		Addr:     "127.0.0.1:0",
		Registry: reg,
		Events:   ring,
		Ready: func() error {
			if !ready.Load() {
				return errors.New("engine not started")
			}
			return nil
		},
		Invariants: func() error { return nil },
		Tool:       "obstest",
		Scale:      0.25,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	defer a.Shutdown(time.Second)
	base := a.URL()
	if base == "" {
		t.Fatal("no URL after Listen")
	}

	if code, body := adminGet(t, base+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// /readyz flips with the Ready callback.
	if code, _ := adminGet(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before start = %d, want 503", code)
	}
	ready.Store(true)
	if code, _ := adminGet(t, base+"/readyz?invariants=1"); code != 200 {
		t.Fatalf("/readyz after start = %d, want 200", code)
	}
	ready.Store(false)
	if code, _ := adminGet(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after stop = %d, want 503", code)
	}
	ready.Store(true)

	code, body := adminGet(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if err := ValidatePrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics does not validate: %v\n%s", err, body)
	}
	if !strings.Contains(body, `tierd_test_total{tenant="a"} 5`) {
		t.Fatalf("/metrics missing series:\n%s", body)
	}

	if code, body := adminGet(t, base+"/events"); code != 200 || !strings.Contains(body, `"reason":"promotion"`) {
		t.Fatalf("/events = %d %q", code, body)
	}
	code, body = adminGet(t, base+"/events?format=artifact")
	if code != 200 {
		t.Fatalf("/events artifact = %d", code)
	}
	art, err := results.ReadArtifact(strings.NewReader(body))
	if err != nil {
		t.Fatalf("artifact: %v", err)
	}
	if art.Tool != "obstest" || art.Kind != "events" || art.Scale != 0.25 || art.Seed != 11 || len(art.Results) != 1 {
		t.Fatalf("artifact header wrong: %+v", art)
	}

	if code, body := adminGet(t, base+"/debug/pprof/heap?debug=1"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/heap = %d", code)
	}

	if err := a.Shutdown(time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}
}

func TestAdminRequiresAddr(t *testing.T) {
	if _, err := NewAdmin(AdminConfig{}); err == nil {
		t.Fatal("expected error for empty addr")
	}
}

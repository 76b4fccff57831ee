package tiered_test

import (
	"go/build"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestEngineDoesNotImportSimulator guards the package graph. Only non-test
// files are checked — the fidelity test imports the simulator on purpose,
// and artifact round-trip tests read what obs wrote.
//
//   - tiered: the online engine is measured against the offline simulator
//     from its tests, never linked to it, and carries no load driver.
//   - obs: the observability plane imports nothing from this module but
//     the results/v1 envelope it writes /events in.
//   - results: the envelope is a leaf.
//   - experiments: the offline evaluation links none of the online half.
//   - loadgen: the load driver sits on top — commands and examples import
//     it, no internal package does.
func TestEngineDoesNotImportSimulator(t *testing.T) {
	const internal = "hybridmem/internal/"
	only := func(allowed ...string) func(string) bool {
		return func(imp string) bool {
			return strings.HasPrefix(imp, "hybridmem") && !slices.Contains(allowed, strings.TrimPrefix(imp, internal))
		}
	}
	none := func(denied ...string) func(string) bool {
		return func(imp string) bool {
			return slices.Contains(denied, strings.TrimPrefix(imp, internal))
		}
	}
	rules := map[string]func(imp string) bool{
		"tiered":      none("sim", "policy", "clockdwf"),
		"experiments": none("tiered", "server", "persist", "obs"),
		"obs":         only("results"),
		"results":     only(),
	}
	dirs, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		pkg, err := build.ImportDir(filepath.Join("..", d.Name()), 0)
		if err != nil {
			t.Fatalf("internal/%s: %v", d.Name(), err)
		}
		for _, imp := range pkg.Imports {
			denied := rules[d.Name()]
			if imp == internal+"loadgen" || denied != nil && denied(imp) {
				t.Errorf("internal/%s imports %s", d.Name(), imp)
			}
		}
	}
}

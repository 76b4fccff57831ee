package tiered_test

import (
	"go/build"
	"testing"
)

// TestEngineDoesNotImportSimulator guards the package graph: the online
// engine is measured against the offline simulator from its tests, never
// linked to it. Only the non-test files are checked — the fidelity test
// imports all three on purpose.
func TestEngineDoesNotImportSimulator(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		switch imp {
		case "hybridmem/internal/sim", "hybridmem/internal/policy", "hybridmem/internal/clockdwf":
			t.Errorf("internal/tiered imports %s", imp)
		}
	}
}

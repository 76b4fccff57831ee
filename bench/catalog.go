package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is one metric of BENCHMARK.json. Bound is present on
// end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// catalog is BENCHMARK.json: the single list of workload and metric names,
// units and bounds. The program emits exactly these names, so the file
// cannot drift from the code without a run failing.
type catalog struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`

	root string // directory holding BENCHMARK.json
}

// loadCatalog finds BENCHMARK.json in the working directory (the driver
// runs from the checkout root) or its parent (go test and go run from
// bench/).
func loadCatalog() (*catalog, error) {
	var lastErr error
	for _, dir := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			lastErr = err
			continue
		}
		c := &catalog{root: dir}
		if err := json.Unmarshal(raw, c); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return c, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..: %w", lastErr)
}

// def returns the definition of a metric and whether it is end-to-end.
func (c *catalog) def(name string) (d metricDef, endToEnd, ok bool) {
	for _, m := range c.EndToEnd {
		if m.Name == name {
			return m, true, true
		}
	}
	for _, m := range c.PerLayer {
		if m.Name == name {
			return m, false, true
		}
	}
	return metricDef{}, false, false
}

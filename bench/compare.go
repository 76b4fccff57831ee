package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict compares one end-to-end metric between two sets of runs of one
// workload, a the parent's and b the change's. A median worse by more than
// the bound is regressed; when either side's spread exceeds the bound the
// medians cannot say, and the verdict is unresolved unless every run of b
// reads better than every run of a.
func verdict(d metricDef, a, b []float64) string {
	ma, mb := medianF(a), medianF(b)
	worse := (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	if max(spread(a), spread(b)) > d.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if (d.Better == "higher" && y <= x) || (d.Better != "higher" && y >= x) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved"
		}
	}
	if worse > d.Bound {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any row regressed.
func compareFiles(w io.Writer, cat *catalog, pathA, pathB string) (bool, error) {
	fa, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-16s %-12s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "change", "spread", "bound", "verdict")
	for _, wl := range cat.Workloads {
		for _, d := range cat.EndToEnd {
			a, b := values(fa.Results, wl.Name, d.Name), values(fb.Results, wl.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(d, a, b)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-16s %-12s %14.6g %14.6g %+7.2f%% %7.2f%% %5.0f%%  %s\n",
				wl.Name, d.Name, medianF(a), medianF(b), 100*(medianF(b)-medianF(a))/medianF(a),
				100*max(spread(a), spread(b)), 100*d.Bound, v)
		}
	}
	return regressed, nil
}

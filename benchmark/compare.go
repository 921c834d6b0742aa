package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"twolayer/internal/cliutil"
)

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction: positive means the change lost ground.
func worseBy(m metric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, the parent's
// value, the change's, how much worse the change is and the bound, and —
// where both runs were traced — every exact count that differs. It returns
// a failing exit code when any metric is worse by more than its bound, any
// workload failed, or an exact count moved.
func compareFiles(w io.Writer, parentPath, changePath string) int {
	parent, err := readReport(parentPath)
	if err == nil {
		var change report
		if change, err = readReport(changePath); err == nil {
			if compareReports(w, parent, change) {
				return cliutil.ExitOK
			}
			return cliutil.ExitHarness
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return cliutil.ExitUsage
}

func compareReports(w io.Writer, parent, change report) (ok bool) {
	ok = true
	byName := make(map[string]result)
	for _, r := range change.Results {
		byName[r.Workload] = r
	}
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %9s %7s\n", "workload", "metric", "parent", "change", "worse by", "bound")
	for _, a := range parent.Results {
		b, found := byName[a.Workload]
		if !found {
			continue
		}
		if !a.Correct || !b.Correct {
			fmt.Fprintf(w, "%-16s FAILED (parent correct=%v, change correct=%v)\n", a.Workload, a.Correct, b.Correct)
			ok = false
		}
		if a.EndToEnd != nil && b.EndToEnd != nil {
			for _, m := range endToEnd {
				d := worseBy(m, a.EndToEnd[m.Name], b.EndToEnd[m.Name])
				verdict := ""
				if d > m.Bound {
					verdict, ok = "  REGRESSION", false
				}
				fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", a.Workload, m.Name,
					a.EndToEnd[m.Name], b.EndToEnd[m.Name], 100*d, 100*m.Bound, verdict)
			}
		}
		if a.PerLayer != nil && b.PerLayer != nil {
			for _, m := range perLayer() {
				if m.Exact && a.PerLayer[m.Name] != b.PerLayer[m.Name] {
					fmt.Fprintf(w, "%-16s %-32s %v != %v  EXACT COUNT MOVED\n", a.Workload, m.Name, a.PerLayer[m.Name], b.PerLayer[m.Name])
					ok = false
				}
			}
		}
	}
	return ok
}

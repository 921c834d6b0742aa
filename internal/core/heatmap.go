package core

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"twolayer/internal/apps"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
)

// The sensitivity heatmap is the dense version of Figure 3 that the batched
// analytic solver makes affordable: instead of the paper's 7x6 grid, every
// variant is solved on an n x n logarithmic lattice spanning the same
// latency and bandwidth extremes — thousands of wide-area points answered
// from one recording per variant. Point-at-a-time this was a cold-start
// proposition; through Eval.SolveBatch the whole lattice is a handful of
// structure-of-arrays passes per frozen variant, and the matched variants'
// replays are shared out over the cores in chunks (Figure3Analytic).

// DefaultHeatmapSize is the lattice resolution of `figures -heatmap`.
const DefaultHeatmapSize = 64

// HeatmapLatencies returns n log-spaced wide-area latencies from the paper
// grid's fastest to its slowest (500 us to 300 ms). The interpolation is
// a deterministic closed form of the index, so reruns produce identical
// axes (and identical CSV bytes).
func HeatmapLatencies(n int) []sim.Time {
	lo, hi := Latencies[0], Latencies[len(Latencies)-1]
	ratio := float64(hi) / float64(lo)
	out := make([]sim.Time, n)
	for i := range out {
		f := float64(i) / float64(n-1)
		out[i] = sim.Time(math.Round(float64(lo) * math.Pow(ratio, f)))
	}
	return out
}

// HeatmapBandwidths returns n log-spaced wide-area bandwidths from the
// paper grid's fastest to its most starved (6.3 MB/s down to 0.03 MB/s),
// descending like the paper's Bandwidths axis.
func HeatmapBandwidths(n int) []float64 {
	lo, hi := Bandwidths[0], Bandwidths[len(Bandwidths)-1]
	ratio := hi / lo
	out := make([]float64, n)
	for i := range out {
		f := float64(i) / float64(n-1)
		out[i] = lo * math.Pow(ratio, f)
	}
	return out
}

// HeatmapOptions configures a sensitivity heatmap.
type HeatmapOptions struct {
	// Size is the cells per axis; 0 means DefaultHeatmapSize. Must be at
	// least 2 (each axis interpolates between two grid extremes).
	Size int
	// Apps restricts the applications by name; empty means all six.
	Apps []string
	// Cache memoizes the per-variant recordings; nil means DefaultCache.
	Cache *RunCache
	// Policy supervises the recording runs.
	Policy *RunPolicy
	// Analytic carries the solver options (the matched replay's tolerance).
	Analytic AnalyticOptions
}

// Heatmap solves the dense per-variant sensitivity lattice analytically.
// It is Figure3Analytic on log-spaced axes: one recording per variant at
// the reference point, then Size x Size wide-area cells per variant
// through the batched solver.
func Heatmap(scale apps.Scale, opts HeatmapOptions) ([]Figure3Panel, []AnalyticReport, error) {
	n := opts.Size
	if n == 0 {
		n = DefaultHeatmapSize
	}
	if n < 2 {
		return nil, nil, fmt.Errorf("core: heatmap needs at least a 2x2 lattice, got size %d", n)
	}
	return Figure3Analytic(scale, Figure3Options{
		Apps:       opts.Apps,
		Latencies:  HeatmapLatencies(n),
		Bandwidths: HeatmapBandwidths(n),
		Cache:      opts.Cache,
		Policy:     opts.Policy,
	}, opts.Analytic)
}

// WriteHeatmapCSV emits the heatmap panels as one flat CSV (the same
// columns as `figures -fig3 -csv`, so downstream plotting scripts read
// both). Cell order — variant, then latency, then bandwidth — and number
// formatting are fixed, so identical panels produce identical bytes. Rows
// are streamed rather than collected in a stats.Table: a 64×64 heatmap is
// 45,056 rows, and holding them all as strings was the largest allocation
// left after the solve.
func WriteHeatmapCSV(w io.Writer, panels []Figure3Panel) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	stats.CSVRow(bw, "app", "variant", "latency_ms", "bandwidth_MBs", "relative_speedup_pct")
	for _, p := range panels {
		variant := "unoptimized"
		if p.Optimized {
			variant = "optimized"
		}
		bwCells := make([]string, len(p.Bandwidths))
		for j, b := range p.Bandwidths {
			bwCells[j] = fmt.Sprintf("%.6g", b/1e6)
		}
		for i, lat := range p.Latencies {
			latCell := fmt.Sprintf("%.6g", lat.Milliseconds())
			for j := range p.Bandwidths {
				value := fmt.Sprintf("%.2f", p.Rel[i][j])
				if k := p.FailedAt(i, j); k != "" {
					value = FailedCell(k)
				}
				stats.CSVRow(bw, p.App, variant, latCell, bwCells[j], value)
			}
		}
	}
}

package core

import (
	"fmt"

	"twolayer/internal/network"
	"twolayer/internal/stats"
)

// GapResult is the paper's Section 5.1 "acceptable NUMA gap" analysis for
// one application variant: the largest slow/fast speed ratio at which
// relative speedup stays at or above the threshold.
type GapResult struct {
	App       string
	Optimized bool
	// BandwidthGap is intra-bandwidth / slowest acceptable WAN bandwidth,
	// measured along the best-latency row; zero if even the fastest setting
	// is below the threshold.
	BandwidthGap float64
	// LatencyGap is longest acceptable WAN latency / intra-latency,
	// measured along the best-bandwidth column; zero as above.
	LatencyGap float64
	// BandwidthFailed and LatencyFailed are the failure kind of the FAILED
	// cell a walk reached while still in the acceptable range: a killed run
	// carries no speedup, so that gap is unknown (the gap field holds only
	// the walk up to the failed cell). "" for a measured gap.
	BandwidthFailed, LatencyFailed string `json:",omitempty"`
}

// GapAnalysis post-processes Figure 3 panels with the given acceptance
// threshold (the paper uses 60 percent, and mentions 40 percent as the
// point where extra clusters stop helping).
func GapAnalysis(panels []Figure3Panel, thresholdPct float64) []GapResult {
	params := network.DefaultParams()
	var out []GapResult
	for _, p := range panels {
		g := GapResult{App: p.App, Optimized: p.Optimized}
		// Bandwidth gap: walk the lowest-latency row toward slower links,
		// stopping at the first setting below the threshold (the acceptable
		// range must be contiguous from the fast end).
		for j := range p.Bandwidths {
			if g.BandwidthFailed = p.FailedAt(0, j); g.BandwidthFailed != "" || p.Rel[0][j] < thresholdPct {
				break
			}
			g.BandwidthGap = params.IntraBandwidth / p.Bandwidths[j]
		}
		// Latency gap: walk the best-bandwidth column toward longer
		// latencies.
		for i := range p.Latencies {
			if g.LatencyFailed = p.FailedAt(i, 0); g.LatencyFailed != "" || p.Rel[i][0] < thresholdPct {
				break
			}
			g.LatencyGap = float64(p.Latencies[i]) / float64(params.IntraLatency)
		}
		out = append(out, g)
	}
	return out
}

// RenderGaps formats the analysis.
func RenderGaps(gaps []GapResult, thresholdPct float64) string {
	t := stats.NewTable(
		fmt.Sprintf("Program (>=%.0f%%)", thresholdPct),
		"Variant", "Bandwidth gap", "Latency gap")
	gap := func(ratio float64, failed string) string {
		if failed != "" {
			return FailedCell(failed)
		}
		return fmt.Sprintf("%.0fx", ratio)
	}
	for _, g := range gaps {
		t.AddRow(g.App, variantName(g.Optimized),
			gap(g.BandwidthGap, g.BandwidthFailed), gap(g.LatencyGap, g.LatencyFailed))
	}
	return t.String()
}

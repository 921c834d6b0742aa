package awari

import "twolayer/internal/apps"

// BenchStateExpansions generates the successor states of every position up
// to the Paper-scale stone limit, iters times, with the allocation-free
// movesInto the per-rank solvers use. It returns the number of states
// expanded — the unit benchmark/units.go prices in ns per node expansion.
// The level enumeration is memoized after the first pass, so the steady
// state measures move generation alone.
func BenchStateExpansions(iters int) int64 {
	cfg := ConfigFor(apps.Paper)
	var buf []State
	var expanded int64
	for it := 0; it < iters; it++ {
		for stones := 1; stones <= cfg.MaxStones; stones++ {
			for _, s := range cfg.Rules.enumerate(stones) {
				buf = cfg.Rules.movesInto(buf, s)
				expanded++
			}
		}
	}
	return expanded
}

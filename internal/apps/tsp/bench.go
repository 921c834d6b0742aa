package tsp

import "twolayer/internal/apps"

// BenchNodeExpansions runs the Paper-scale branch-and-bound search iters
// times — the same job generation and allocation-free descent the
// simulated workers run — and returns the number of search nodes visited,
// which benchmark/units.go prices in ns per node expansion.
func BenchNodeExpansions(iters int) int64 {
	cfg := ConfigFor(apps.Paper)
	d := cities(cfg.N, cfg.Seed)
	minOut := minOutEdges(d)
	cutoff := nearestNeighborBound(d)
	jobs := generateJobs(d, minOut, cfg.JobDepth, cutoff)
	scratch := newScratch(cfg.N)
	var nodes int64
	for it := 0; it < iters; it++ {
		for _, j := range jobs {
			_, n := expandWith(scratch, d, minOut, j, cutoff)
			nodes += n
		}
	}
	return nodes
}

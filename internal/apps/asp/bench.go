package asp

import "twolayer/internal/apps"

// BenchRowRelaxations runs full Floyd-Warshall passes over the Paper-scale
// graph iters times and returns the number of row relaxations applied (one
// relaxRows visit of one row, i.e. n cells) — the unit benchmark/units.go
// prices in ns per row relaxation. The per-iteration matrix copy is
// included but is three orders of magnitude cheaper than the n^3 relax
// work it feeds.
func BenchRowRelaxations(iters int) int64 {
	cfg := ConfigFor(apps.Paper)
	n := cfg.N
	var rows int64
	for it := 0; it < iters; it++ {
		d := randomGraph(n, cfg.Seed)
		for k := 0; k < n; k++ {
			relaxRows(d, d[k], k)
		}
		rows += int64(n) * int64(n)
	}
	return rows
}

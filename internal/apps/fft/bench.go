package fft

import "twolayer/internal/apps"

// BenchButterflies runs the iterative radix-2 row transform over the
// Paper-scale six-step matrix iters times and returns the number of
// butterfly operations performed — the unit benchmark/units.go prices in
// ns per butterfly. Each iteration transforms all side rows of the side x
// side matrix, the same per-rank work the simulated run performs in steps
// 2 and 4.
func BenchButterflies(iters int) int64 {
	cfg := ConfigFor(apps.Paper)
	side := 1
	for side*side < cfg.N {
		side <<= 1
	}
	src := randomInput(cfg.N, cfg.Seed)
	buf := make([]complex128, side)
	var ops int64
	for it := 0; it < iters; it++ {
		for row := 0; row < side; row++ {
			copy(buf, src[row*side:(row+1)*side])
			ops += iterFFT(buf)
		}
	}
	return ops
}

package water

import "twolayer/internal/apps"

// BenchForcePairs drives the half-shell force kernel over the Paper-scale
// molecule cloud iters times and returns the number of pair interactions
// evaluated — the unit benchmark/units.go prices in ns per force pair. It
// exercises exactly the kernel the simulated ranks run (forceHalf), on the
// same pristine initial state.
func BenchForcePairs(iters int) int64 {
	cfg := ConfigFor(apps.Paper)
	shared, _ := initialState(cfg.N, cfg.Seed)
	pos := append([]Vec3(nil), shared...)
	force := make([]Vec3, len(pos))
	n := int64(len(pos))
	var pairs int64
	for it := 0; it < iters; it++ {
		for i := range force {
			force[i] = Vec3{}
		}
		forceHalf(pos, force)
		pairs += n * (n - 1) / 2
	}
	return pairs
}

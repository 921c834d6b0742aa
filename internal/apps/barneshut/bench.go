package barneshut

import "twolayer/internal/apps"

// BenchTreeForce builds the Paper-scale octree (reusing one arena, as the
// simulated ranks do across iterations) and evaluates the force on every
// body, iters times. It returns the number of body-interactor evaluations
// — the app's virtual cost unit, which benchmark/units.go prices in ns per
// interaction.
func BenchTreeForce(iters int) int64 {
	cfg := ConfigFor(apps.Paper)
	bodies := sortedBodies(cfg.N, cfg.Seed)
	a := newArena()
	var interactions int64
	for it := 0; it < iters; it++ {
		t := buildTreeIn(a, bodies)
		for i := range bodies {
			_, w := t.forceLocal(i, cfg.Theta)
			interactions += w
		}
	}
	return interactions
}

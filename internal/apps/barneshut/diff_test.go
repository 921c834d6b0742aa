package barneshut

// Differential tests pinning the arena-backed tree construction and the
// key-precomputing spatial sort against the allocation-per-node and
// SliceStable forms they replaced. All comparisons are bitwise: the arena
// may only change where nodes live, never what the traversals compute.

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"twolayer/internal/apps"
)

// TestArenaReuseBitIdenticalForces rebuilds trees in one recycled arena
// across several different body sets (the per-rank iteration pattern) and
// checks forces and work counters stay bit-identical to trees built with
// fresh allocations each time.
func TestArenaReuseBitIdenticalForces(t *testing.T) {
	const theta = 0.6
	a := newArena()
	for trial := 0; trial < 5; trial++ {
		bodies := initialBodies(100+30*trial, int64(trial+1))
		spatialSort(bodies)
		reused := buildTreeIn(a, bodies)
		fresh := buildTree(bodies)
		for i := range bodies {
			gf, gw := reused.forceLocal(i, theta)
			wf, ww := fresh.forceLocal(i, theta)
			if gf != wf || gw != ww {
				t.Fatalf("trial %d body %d: arena tree (%+v, %d) != fresh tree (%+v, %d)",
					trial, i, gf, gw, wf, ww)
			}
		}
		// Export must agree too: it feeds message sizes, hence timing.
		dest := box{min: Vec{3, 3, 3}, max: Vec{4, 4, 4}}
		gi, gv := reused.exportInto(nil, dest, theta)
		wi, wv := fresh.exportInto(nil, dest, theta)
		if gv != wv || len(gi) != len(wi) {
			t.Fatalf("trial %d: export visited/items differ (%d/%d vs %d/%d)",
				trial, gv, len(gi), wv, len(wi))
		}
		for i := range gi {
			if gi[i] != wi[i] {
				t.Fatalf("trial %d: export item %d differs", trial, i)
			}
		}
	}
}

// TestSpatialSortMatchesSliceStable compares the concrete-sorter spatial
// sort against the original sort.SliceStable form, on a body set quantized
// to a coarse grid so Morton keys collide and stability matters.
func TestSpatialSortMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bodies := make([]Body, 400)
	for i := range bodies {
		// 3 distinct values per axis: at most 27 distinct keys across 400
		// bodies, so nearly every comparison ties. Mass tags the identity.
		bodies[i] = Body{
			Pos:  Vec{float64(rng.Intn(3)), float64(rng.Intn(3)), float64(rng.Intn(3))},
			Mass: float64(i),
		}
	}
	got := append([]Body(nil), bodies...)
	want := append([]Body(nil), bodies...)

	spatialSort(got)

	bb := boundsOf(want)
	sort.SliceStable(want, func(i, j int) bool {
		return mortonKey(want[i].Pos, bb) < mortonKey(want[j].Pos, bb)
	})

	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("permutation differs at %d: got mass %v, want mass %v",
				i, got[i].Mass, want[i].Mass)
		}
	}
}

// TestSortedBodiesSharedIsPristine snapshots the memoized sorted cloud,
// runs a sequential step (which must copy its block), and checks the
// shared slice is untouched.
func TestSortedBodiesSharedIsPristine(t *testing.T) {
	const n, seed = 64, 8
	shared := sortedBodies(n, seed)
	snap := append([]Body(nil), shared...)
	fresh := initialBodies(n, seed)
	spatialSort(fresh)
	for i := range shared {
		if shared[i] != snap[i] || shared[i] != fresh[i] {
			t.Fatalf("shared sorted bodies diverge at %d", i)
		}
	}
}

// TestInteractorTreeScratchReuse checks rebuilding interactor trees with
// recycled arena and scratch produces bitwise-identical forceAt results.
func TestInteractorTreeScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := newArena()
	var scratch []Body
	for trial := 0; trial < 4; trial++ {
		items := make([]Interactor, 50+20*trial)
		for i := range items {
			items[i] = Interactor{
				Pos:  Vec{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
				Mass: rng.Float64(),
			}
		}
		var reused *tree
		reused, scratch = buildInteractorTreeIn(a, scratch, items)
		fresh := buildInteractorTree(items)
		probe := Vec{0.5, -0.5, 0.25}
		gf, gw := reused.forceAt(probe, 0.6)
		wf, ww := fresh.forceAt(probe, 0.6)
		if gf != wf || gw != ww {
			t.Fatalf("trial %d: scratch tree (%+v, %d) != fresh tree (%+v, %d)",
				trial, gf, gw, wf, ww)
		}
	}
}

// TestExportIntoWarmBufferNoAlloc pins the export's steady state: a rank
// exports into the buffer it kept from the iteration before, so once that
// buffer has grown to the largest set it holds, exporting allocates
// nothing, and the set is the one a fresh export builds.
func TestExportIntoWarmBufferNoAlloc(t *testing.T) {
	tr := buildTree(initialBodies(256, 5))
	dests := []box{
		{min: Vec{1, 1, 1}, max: Vec{2, 2, 2}},
		{min: Vec{-0.5, -0.5, -0.5}, max: Vec{0.5, 0.5, 0.5}},
		{min: Vec{50, 50, 50}, max: Vec{51, 51, 51}},
	}
	var buf []Interactor
	for _, d := range dests {
		buf, _ = tr.exportInto(buf[:0], d, 0.6)
	}
	for _, d := range dests {
		got, gv := tr.exportInto(buf[:0], d, 0.6)
		want, wv := tr.exportInto(nil, d, 0.6)
		if !slices.Equal(got, want) || gv != wv {
			t.Fatalf("export into a warm buffer for %+v differs from a fresh one", d)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, d := range dests {
			buf, _ = tr.exportInto(buf[:0], d, 0.6)
		}
	}); n != 0 {
		t.Errorf("exporting into a warm buffer allocates %v times per round", n)
	}
}

// TestExportFitsOwnBodies pins the bound the run's export sets are carved
// at: every interactor stands for a disjoint, non-empty set of the
// exporter's bodies, so no set a rank exports, in any iteration and for any
// destination, holds more than the rank's own block. A set over it would
// regrow its slice of the shared backing array every run.
func TestExportFitsOwnBodies(t *testing.T) {
	for _, s := range []apps.Scale{apps.Tiny, apps.Small, apps.Paper} {
		for _, procs := range []int{32, 64} {
			b := New(ConfigFor(s), procs)
			sets := 0
			b.sequentialRun(func(src, dst int, items []Interactor) {
				sets++
				if lo, hi := b.blockOf(src); len(items) > hi-lo {
					t.Errorf("%v, %d ranks: rank %d exports %d interactors to %d, over its %d bodies",
						s, procs, src, len(items), dst, hi-lo)
				}
			})
			if want := ConfigFor(s).Iters * procs * (procs - 1); sets != want {
				t.Errorf("%v, %d ranks: saw %d exports, want %d", s, procs, sets, want)
			}
		}
	}
}

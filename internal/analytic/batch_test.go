package analytic

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"twolayer/internal/network"
	"twolayer/internal/sim"
)

// randomPoints derives a point set from a graph's reference parameters the
// way real sweeps do: mostly WAN-only variations, with optional LAN
// perturbations mixed in so the lanes of one chunk disagree on every
// parameter, plus the degenerate corners sensitivity analysis asks for
// (zero latency, infinite bandwidth).
func randomPoints(r *rand.Rand, ref network.Params, n int, mixLan bool) []network.Params {
	ps := make([]network.Params, n)
	for i := range ps {
		p := ref
		p.WANLatency = sim.Time(r.Int63n(300_000_000))
		p.WANBandwidth = 1e4 + r.Float64()*1e7
		switch r.Intn(8) {
		case 0:
			p.WANLatency = 0
		case 1:
			p.WANBandwidth = math.MaxFloat64
		}
		if mixLan && r.Intn(3) == 0 {
			p.IntraLatency = sim.Time(r.Intn(50_000))
			p.IntraBandwidth = 1e6 + r.Float64()*1e8
			p.SendOverhead = sim.Time(r.Intn(20_000))
			p.RecvOverhead = sim.Time(r.Intn(20_000))
		}
		ps[i] = p
	}
	return ps
}

// TestSolveBatchMatchesScalar is the batched-vs-scalar property test: over
// randomized recorded graphs and random point sets — WAN-only sweeps,
// mixed-LAN sets, and batches both smaller and larger than one lane chunk
// — SolveBatch must be bit-identical to per-point Solve, whether the
// scalar answers come from a fresh evaluator or from the same evaluator
// (state reused across both kinds of walk, in both orders). Where the AVX2 lane kernels run, this pins them against
// the scalar walk; purego and race builds run it on the Go bodies.
func TestSolveBatchMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		g := randomGraph(r, true)
		mixLan := i%2 == 1
		n := 1 + r.Intn(2*BatchLanes+7)
		ps := randomPoints(r, g.Ref, n, mixLan)

		// Scalar answers from a fresh evaluator.
		fresh := NewEval(g)
		want := make([]sim.Time, n)
		for j, p := range ps {
			want[j] = fresh.Solve(p)
		}

		// Batch before any scalar solve...
		ev := NewEval(g)
		got := ev.SolveBatch(ps)
		for j := range ps {
			if got[j] != want[j] {
				t.Fatalf("graph %d point %d: cold SolveBatch %d, scalar %d", i, j, got[j], want[j])
			}
		}
		checkBatchCounters(t, g, ps)
		// ...then scalar solves on the same evaluator...
		for j, p := range ps {
			if again := ev.Solve(p); again != want[j] {
				t.Fatalf("graph %d point %d: scalar after batch %d, want %d", i, j, again, want[j])
			}
		}
		// ...then batch again on it.
		warm := ev.SolveBatch(ps)
		for j := range ps {
			if warm[j] != want[j] {
				t.Fatalf("graph %d point %d: warm SolveBatch %d, want %d", i, j, warm[j], want[j])
			}
		}
		if st := ev.Stats(); st.BatchPoints != 2*n || st.BatchSolves == 0 {
			t.Fatalf("graph %d: batch counters off: %+v for %d points twice", i, st, n)
		}
	}
}

// TestSolveBatchPartialChunks is a fixed mix of partial chunks on one
// evaluator — non-uniform, uniform, a full non-uniform chunk followed by a
// uniform remainder, a lone LAN-perturbed point — so padding lanes and the
// per-chunk caches must neither leak into the answers nor be counted.
func TestSolveBatchPartialChunks(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(26)), true) // six ranks on two clusters
	wan := func(i int) network.Params {
		p := g.Ref
		p.WANLatency = sim.Time(1+i) * 3 * sim.Millisecond
		p.WANBandwidth = 1e5 * float64(1+i)
		return p
	}
	lan := func(i int) network.Params {
		p := wan(i)
		p.IntraLatency = sim.Time(1000 * (1 + i%4))
		p.IntraBandwidth = 1e7 * float64(1+i%3)
		p.SendOverhead = sim.Time(500 * (i % 5))
		return p
	}
	sets := [][]network.Params{
		{lan(0), wan(1), lan(2), wan(3), lan(4)},
		{wan(5), wan(6), wan(7)},
		nil,
		{lan(9)},
	}
	for i := 0; i < BatchLanes; i++ {
		sets[2] = append(sets[2], lan(i))
	}
	for i := 0; i < 7; i++ {
		sets[2] = append(sets[2], wan(i))
	}
	ev := NewEval(g)
	for si, ps := range sets {
		before := ev.Stats()
		got := ev.SolveBatch(ps)
		for j, p := range ps {
			if want := NewEval(g).Solve(p); got[j] != want {
				t.Fatalf("set %d point %d: SolveBatch %d, scalar %d", si, j, got[j], want)
			}
		}
		if st := ev.Stats(); st.BatchPoints-before.BatchPoints != len(ps) {
			t.Fatalf("set %d: BatchPoints grew by %d for %d points", si, st.BatchPoints-before.BatchPoints, len(ps))
		}
	}
	checkBatchCounters(t, g, sets[2])
}

// checkBatchCounters solves ps on a cold evaluator and requires the
// counters to count real points only: BatchPoints is len(ps), and
// OpsEvaluated the whole graph for each real point.
func checkBatchCounters(t *testing.T, g *Graph, ps []network.Params) {
	t.Helper()
	cold := NewEval(g)
	cold.SolveBatch(ps)
	st := cold.Stats()
	want := int64(g.Nodes()) * int64(len(ps))
	if st.BatchPoints != len(ps) || st.OpsEvaluated != want {
		t.Fatalf("counters count padding: BatchPoints %d for %d points, OpsEvaluated %d, want %d",
			st.BatchPoints, len(ps), st.OpsEvaluated, want)
	}
}

// TestSolveMatchedBatchMatchesScalar pins matched solving on clones —
// PrepareMatched, then clones solving disjoint blocks of points
// concurrently, the way a sweep spreads a matched grid over its cores —
// against per-point SolveMatched at several worker counts, including
// graphs with no wildcard receives.
func TestSolveMatchedBatchMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		wildcards := i%4 != 0 // every 4th graph has no wildcard receives
		g := randomGraph(r, wildcards)
		n := 1 + r.Intn(40)
		ps := randomPoints(r, g.Ref, n, i%2 == 0)
		fresh := NewEval(g)
		want := make([]sim.Time, n)
		for j, p := range ps {
			want[j] = fresh.SolveMatched(p)
		}
		for _, workers := range []int{1, 2, 5} {
			got := solveMatchedOnClones(NewEval(g), ps, workers)
			for j := range ps {
				if got[j] != want[j] {
					t.Fatalf("graph %d (wildcards=%v) workers %d point %d: %d, want %d",
						i, wildcards, workers, j, got[j], want[j])
				}
			}
		}
	}
}

// solveMatchedOnClones prepares e's matched replay and answers ps on
// workers clones of it, each solving a disjoint block concurrently.
func solveMatchedOnClones(e *Eval, ps []network.Params, workers int) []sim.Time {
	e.PrepareMatched()
	out := make([]sim.Time, len(ps))
	per := (len(ps) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(ps); lo += per {
		hi := min(lo+per, len(ps))
		wg.Add(1)
		go func(cl *Eval) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = cl.SolveMatched(ps[i])
			}
		}(e.Clone())
	}
	wg.Wait()
	return out
}

// TestCloneMatchesParent: a clone made mid-life (matched streams built)
// answers exactly like its parent, and using it does not disturb the
// parent.
func TestCloneMatchesParent(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 20; i++ {
		g := randomGraph(r, true)
		ps := randomPoints(r, g.Ref, 8, false)
		parent := NewEval(g)
		parent.SolveMatched(ps[0]) // build the matched streams
		cl := parent.Clone()
		for _, p := range ps {
			pf, pm := parent.Solve(p), parent.SolveMatched(p)
			cf, cm := cl.Solve(p), cl.SolveMatched(p)
			if pf != cf || pm != cm {
				t.Fatalf("graph %d: clone diverged: frozen %d/%d matched %d/%d", i, pf, cf, pm, cm)
			}
		}
	}
}

// TestClonesSolveConcurrently is the -race regression test for the
// documented contract: one parent evaluator, several clones, all solving
// the same shared graph from their own goroutines simultaneously.
func TestClonesSolveConcurrently(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(11)), true)
	ps := randomPoints(rand.New(rand.NewSource(12)), g.Ref, 16, false)
	parent := NewEval(g)
	parent.SolveMatched(ps[0]) // build shared streams before cloning
	wantF := make([]sim.Time, len(ps))
	wantM := make([]sim.Time, len(ps))
	for i, p := range ps {
		wantF[i] = parent.Solve(p)
		wantM[i] = parent.SolveMatched(p)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		cl := parent.Clone()
		go func(cl *Eval) {
			for i, p := range ps {
				if got := cl.Solve(p); got != wantF[i] {
					done <- fmtErr("clone Solve point %d: %d, want %d", i, got, wantF[i])
					return
				}
				if got := cl.SolveMatched(p); got != wantM[i] {
					done <- fmtErr("clone SolveMatched point %d: %d, want %d", i, got, wantM[i])
					return
				}
				if got := cl.SolveBatch(ps); got[i] != wantF[i] {
					done <- fmtErr("clone SolveBatch point %d: %d, want %d", i, got[i], wantF[i])
					return
				}
			}
			done <- nil
		}(cl)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

func fmtErr(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

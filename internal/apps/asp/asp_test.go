package asp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"twolayer/internal/apps"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

func TestSequentialASPMatchesDijkstra(t *testing.T) {
	f := func(seed int64, sizeSel uint8) bool {
		n := int(sizeSel%20) + 2
		adj := randomGraph(n, seed)
		fw := randomGraph(n, seed)
		sequentialASP(fw)
		for src := 0; src < n; src++ {
			d := dijkstra(adj, src)
			for v := 0; v < n; v++ {
				got, want := fw[src][v], d[v]
				if got >= inf {
					got = inf
				}
				if want >= inf {
					want = inf
				}
				if got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOwnerOfInvertsRowsOf(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 7, 32, 48} {
		a := New(Config{N: 48, Seed: 1}, procs)
		for k := 0; k < a.cfg.N; k++ {
			r := a.ownerOf(k)
			lo, hi := a.rowsOf(r)
			if k < lo || k >= hi {
				t.Errorf("procs=%d ownerOf(%d)=%d with block [%d,%d)", procs, k, r, lo, hi)
			}
		}
	}
}

func TestBinChildrenSpansTree(t *testing.T) {
	for n := 1; n <= 33; n++ {
		reached := make([]bool, n)
		var visit func(vr int)
		visit = func(vr int) {
			if reached[vr] {
				t.Fatalf("n=%d: node %d reached twice", n, vr)
			}
			reached[vr] = true
			for c := range binChildren(vr, n) {
				visit(c)
			}
		}
		visit(0)
		for vr, ok := range reached {
			if !ok {
				t.Errorf("n=%d: node %d unreached", n, vr)
			}
		}
	}
}

func runASP(t *testing.T, topo *topology.Topology, optimized bool, params network.Params) par.Result {
	t.Helper()
	a := New(ConfigFor(apps.Tiny), topo.Procs())
	res, err := par.Run(topo, params, 9, a.Job(optimized))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestASPCorrectAllVariants(t *testing.T) {
	topos := []*topology.Topology{
		topology.SingleCluster(1),
		topology.SingleCluster(5),
		topology.MustUniform(2, 2),
		topology.MustUniform(3, 3),
		topology.DAS(),
	}
	for _, topo := range topos {
		for _, opt := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/opt=%v", topo, opt), func(t *testing.T) {
				runASP(t, topo, opt, network.DefaultParams())
			})
		}
	}
}

func TestSequencerMigrationCutsWANMessages(t *testing.T) {
	// The unoptimized program does a wide-area sequencer RPC for ~75% of
	// rows; the optimized one replaces that with clusters-1 token hops.
	r1 := runASP(t, topology.DAS(), false, network.DefaultParams())
	r2 := runASP(t, topology.DAS(), true, network.DefaultParams())
	if r2.WAN.Messages >= r1.WAN.Messages {
		t.Errorf("optimized WAN messages %d, unoptimized %d", r2.WAN.Messages, r1.WAN.Messages)
	}
}

func TestOptimizedToleratesLatency(t *testing.T) {
	// At 30 ms one-way latency the sequencer round trips dominate the
	// unoptimized program; the optimized one should be several times faster.
	slow := network.DefaultParams().WithWAN(30*sim.Millisecond, 6e6)
	unopt := runASP(t, topology.DAS(), false, slow)
	opt := runASP(t, topology.DAS(), true, slow)
	ratio := float64(unopt.Elapsed) / float64(opt.Elapsed)
	if ratio < 2 {
		t.Errorf("expected optimized to win clearly at 30ms; ratio %.2f (unopt %v, opt %v)",
			ratio, unopt.Elapsed, opt.Elapsed)
	}
}

func TestInfoMetadata(t *testing.T) {
	if Info.Name != "ASP" || !Info.HasOptimized {
		t.Errorf("Info = %+v", Info)
	}
	inst := Info.New(apps.Tiny, 6)
	if _, err := par.Run(topology.MustUniform(2, 3), network.DefaultParams(), 2, inst.Job(true)); err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDropSequencerCorrectAndCheaper(t *testing.T) {
	// The paper's suggested alternative: exploit ASP's regularity and drop
	// the sequencer entirely.
	cfg := ConfigFor(apps.Tiny)
	cfg.DropSequencer = true
	a := New(cfg, 32)
	res, err := par.Run(topology.DAS(), network.DefaultParams(), 9, a.Job(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	withSeq := runASP(t, topology.DAS(), true, network.DefaultParams())
	if res.WAN.Messages >= withSeq.WAN.Messages {
		t.Errorf("dropping the sequencer should remove messages: %d vs %d",
			res.WAN.Messages, withSeq.WAN.Messages)
	}
}

// TestTriangleInequalityProperty: the solved matrix is a metric closure —
// no path through an intermediate vertex can beat a direct entry.
func TestTriangleInequalityProperty(t *testing.T) {
	f := func(seed int64, nSel uint8) bool {
		n := int(nSel%15) + 3
		d := randomGraph(n, seed)
		sequentialASP(d)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					if d[i][k] < inf && d[k][j] < inf && d[i][k]+d[k][j] < d[i][j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLiveRowsExactAtAnyLaterVersion: a rank broadcasts its live pivot
// row, not a snapshot, so a receiver may apply row k after its owner has
// relaxed it with later pivots. On random graphs and block distributions,
// ranks apply their pivots in random interleavings, each reading the
// owner's row as it stands then (any version from the one after pivot k-1
// on), and every block must end equal to sequential Floyd-Warshall.
func TestLiveRowsExactAtAnyLaterVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	later := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		procs := 1 + rng.Intn(min(n, 8))
		seed := rng.Int63()
		a := New(Config{N: n, Seed: seed}, procs)
		blocks := make([][][]int32, procs)
		next := make([]int, procs) // next pivot each rank applies
		for r := range blocks {
			lo, hi := a.rowsOf(r)
			blocks[r] = randomGraphRows(n, seed, lo, hi)
		}
		for {
			// A rank may apply pivot k once k's owner has applied 0..k-1,
			// which is when the owner broadcasts it.
			var ready []int
			for r, k := range next {
				if k < n && next[a.ownerOf(k)] >= k {
					ready = append(ready, r)
				}
			}
			if len(ready) == 0 {
				break
			}
			r := ready[rng.Intn(len(ready))]
			k := next[r]
			o := a.ownerOf(k)
			if next[o] > k {
				later++
			}
			lo, _ := a.rowsOf(o)
			relaxRows(blocks[r], blocks[o][k-lo], k)
			next[r]++
		}
		want := randomGraph(n, seed)
		sequentialASP(want)
		for r, rows := range blocks {
			if next[r] != n {
				t.Fatalf("trial %d: rank %d stopped at pivot %d of %d", trial, r, next[r], n)
			}
			lo, _ := a.rowsOf(r)
			for i, row := range rows {
				if !slices.Equal(row, want[lo+i]) {
					t.Fatalf("trial %d (n=%d, %d ranks): row %d = %v, want %v",
						trial, n, procs, lo+i, row, want[lo+i])
				}
			}
		}
	}
	if later == 0 {
		t.Fatal("no rank ever read a pivot row after its owner moved past it")
	}
	t.Logf("%d pivot rows read at a later version", later)
}

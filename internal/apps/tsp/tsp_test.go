package tsp

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"twolayer/internal/apps"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

func TestSequentialSolveMatchesBruteForce(t *testing.T) {
	f := func(seed int64, nSel, dSel uint8) bool {
		n := int(nSel%5) + 4     // 4..8 cities
		depth := int(dSel%3) + 1 // 1..3
		if depth >= n {
			depth = n - 1
		}
		d := cities(n, seed)
		got, _ := sequentialSolve(d, depth)
		return got == bruteForce(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCutoffIsUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		d := cities(7, seed)
		return nearestNeighborBound(d) >= bruteForce(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestJobsPartitionSearchSpace(t *testing.T) {
	// Expanding all jobs must visit every tour below the cutoff exactly
	// once: the union of job results equals the global optimum, and jobs
	// never share a prefix.
	d := cities(9, 6)
	minOut := minOutEdges(d)
	cutoff := nearestNeighborBound(d)
	jobs := generateJobs(d, minOut, 3, cutoff)
	seen := map[string]bool{}
	for _, j := range jobs {
		key := fmt.Sprint(j.path)
		if seen[key] {
			t.Fatalf("duplicate job %v", j.path)
		}
		seen[key] = true
		if j.path[0] != 0 || len(j.path) != 3 {
			t.Fatalf("malformed job %v", j.path)
		}
	}
}

func runTSP(t *testing.T, topo *topology.Topology, optimized bool, params network.Params) (par.Result, *TSP) {
	t.Helper()
	inst := New(ConfigFor(apps.Tiny), topo.Procs())
	res, err := par.Run(topo, params, 13, inst.Job(optimized))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(); err != nil {
		t.Fatal(err)
	}
	return res, inst
}

func TestTSPCorrectAllVariants(t *testing.T) {
	topos := []*topology.Topology{
		topology.SingleCluster(1),
		topology.SingleCluster(4),
		topology.MustUniform(2, 2),
		topology.MustUniform(2, 3),
		topology.DAS(),
		topology.MustUniform(8, 4),
	}
	for _, topo := range topos {
		for _, opt := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/opt=%v", topo, opt), func(t *testing.T) {
				runTSP(t, topo, opt, network.DefaultParams())
			})
		}
	}
}

func TestDistributedQueueCutsWANTraffic(t *testing.T) {
	r1, _ := runTSP(t, topology.DAS(), false, network.DefaultParams())
	r2, _ := runTSP(t, topology.DAS(), true, network.DefaultParams())
	if r2.WAN.Messages >= r1.WAN.Messages {
		t.Errorf("optimized WAN messages %d, unoptimized %d", r2.WAN.Messages, r1.WAN.Messages)
	}
}

func TestTSPLatencySensitiveBandwidthInsensitive(t *testing.T) {
	// Paper, Section 5.2: TSP's work-stealing pattern is close to a
	// null-RPC — almost insensitive to bandwidth, sensitive to latency.
	base := network.DefaultParams()
	run := func(p network.Params, opt bool) sim.Time {
		inst := New(ConfigFor(apps.Small), 32)
		res, err := par.Run(topology.DAS(), p, 13, inst.Job(opt))
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	fast := run(base.WithWAN(500*sim.Microsecond, 6e6), false)
	lowBW := run(base.WithWAN(500*sim.Microsecond, 0.1e6), false)
	highLat := run(base.WithWAN(100*sim.Millisecond, 6e6), false)
	if float64(lowBW)/float64(fast) > 1.6 {
		t.Errorf("TSP should be bandwidth-insensitive: %v -> %v", fast, lowBW)
	}
	if float64(highLat)/float64(fast) < 2 {
		t.Errorf("TSP should be latency-sensitive: %v -> %v", fast, highLat)
	}
}

func TestWorkStealingHelpsOnSlowWAN(t *testing.T) {
	// Needs a sustained workload: at Tiny scale the termination tail
	// dominates and neither variant can amortize anything.
	slow := network.DefaultParams().WithWAN(30*sim.Millisecond, 6e6)
	run := func(opt bool) sim.Time {
		inst := New(ConfigFor(apps.Small), 32)
		res, err := par.Run(topology.DAS(), slow, 13, inst.Job(opt))
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Check(); err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	unopt, opt := run(false), run(true)
	if opt >= unopt {
		t.Errorf("optimized (%v) should beat unoptimized (%v) at 30ms", opt, unopt)
	}
	if float64(unopt)/float64(opt) < 1.2 {
		t.Errorf("expected a clear win; unopt %v vs opt %v", unopt, opt)
	}
}

func TestInfoMetadata(t *testing.T) {
	if Info.Name != "TSP" || !Info.HasOptimized {
		t.Errorf("Info = %+v", Info)
	}
}

func TestStealBatchOneStillCorrect(t *testing.T) {
	cfg := ConfigFor(apps.Tiny)
	cfg.StealBatch = 1
	inst := New(cfg, 32)
	if _, err := par.Run(topology.DAS(), network.DefaultParams(), 13, inst.Job(true)); err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCityRelabelInvariance: permuting the labels of the non-start cities
// leaves the optimal tour length unchanged.
func TestCityRelabelInvariance(t *testing.T) {
	f := func(seed int64, rotSel uint8) bool {
		n := 7
		d := cities(n, seed)
		rot := int(rotSel%(uint8(n)-1)) + 1
		perm := make([]int, n)
		perm[0] = 0
		for i := 1; i < n; i++ {
			perm[i] = (i-1+rot)%(n-1) + 1
		}
		re := make([][]int32, n)
		for i := range re {
			re[i] = make([]int32, n)
			for j := range re[i] {
				re[i][j] = d[perm[i]][perm[j]]
			}
		}
		return bruteForce(d) == bruteForce(re)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCitiesMemoized: every request for one (n, seed) shares one matrix,
// the one the generator draws.
func TestCitiesMemoized(t *testing.T) {
	a, b := cities(9, 6), cities(9, 6)
	if &a[0][0] != &b[0][0] {
		t.Error("two requests for one configuration got different matrices")
	}
	if !reflect.DeepEqual(a, generateCities(9, 6)) {
		t.Error("memoized matrix differs from the generator's")
	}
	if c := cities(9, 7); reflect.DeepEqual(a, c) {
		t.Error("different seeds share a matrix")
	}
}

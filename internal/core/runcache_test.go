package core

import (
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"twolayer/internal/analytic"
	"twolayer/internal/apps"
	"twolayer/internal/network"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
)

// TestRunCacheHitsAcrossSweeps verifies the headline property: a Figure 3
// sweep warms the cache, and a second sweep over overlapping cells is
// served from memory (hit counter advances, results identical).
func TestRunCacheHitsAcrossSweeps(t *testing.T) {
	cache := NewRunCache()
	opts := Figure3Options{
		Apps:       []string{"TSP"},
		Latencies:  []sim.Time{3300 * sim.Microsecond},
		Bandwidths: []float64{0.95e6},
		Cache:      cache,
	}
	p1, err := Figure3(apps.Tiny, opts)
	if err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := cache.CacheStats().Misses
	if missesAfterFirst == 0 {
		t.Fatal("first sweep reported no cache misses; nothing was simulated?")
	}
	p2, err := Figure3(apps.Tiny, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("second identical sweep produced no cache hits (misses=%d)", st.Misses)
	}
	if st.Misses != missesAfterFirst {
		t.Errorf("second sweep simulated %d new runs; want 0", st.Misses-missesAfterFirst)
	}
	for v := range p1 {
		for i := range p1[v].Rel {
			for j := range p1[v].Rel[i] {
				if p1[v].Rel[i][j] != p2[v].Rel[i][j] {
					t.Errorf("panel %d cell (%d,%d): cached %v != fresh %v",
						v, i, j, p2[v].Rel[i][j], p1[v].Rel[i][j])
				}
			}
		}
	}
}

// TestRunCacheMatchesUncached checks a cached run is bit-identical to a
// plain one and that duplicate concurrent lookups simulate only once.
func TestRunCacheMatchesUncached(t *testing.T) {
	app, err := AppByName("TSP")
	if err != nil {
		t.Fatal(err)
	}
	x := Experiment{
		App: app, Scale: apps.Tiny, Optimized: false,
		Topo:   topology.DAS(),
		Params: network.DefaultParams().WithWAN(3300*sim.Microsecond, 0.95e6),
	}
	plain, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	cache := NewRunCache()
	const callers = 8
	results := make([]sim.Time, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := x.RunCached(cache)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res.Elapsed
		}()
	}
	wg.Wait()
	for i, e := range results {
		if e != plain.Elapsed {
			t.Errorf("caller %d: Elapsed %d != uncached %d", i, e, plain.Elapsed)
		}
	}
	if misses := cache.CacheStats().Misses; misses != 1 {
		t.Errorf("%d concurrent identical lookups ran %d simulations; want 1", callers, misses)
	}
}

// TestRunCacheBypass ensures runs the key cannot describe never populate
// the cache.
func TestRunCacheBypass(t *testing.T) {
	app, err := AppByName("TSP")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewRunCache()
	x := Experiment{
		App: app, Scale: apps.Tiny, Optimized: false,
		Topo: topology.DAS(), Params: network.DefaultParams(),
		Trace: trace.NewStream(32), // observable only outside the key
	}
	if _, err := x.RunCached(cache); err != nil {
		t.Fatal(err)
	}
	// A stored entry would have been a miss (or a disk hit) first.
	if st := cache.CacheStats(); st != (CacheStats{}) {
		t.Errorf("traced run touched the cache: %+v", st)
	}
}

// TestRunCacheVaryRegime: wide-area variability is a regime clause, fully
// described by the key, so a repeated variability run is a memory hit.
func TestRunCacheVaryRegime(t *testing.T) {
	app, err := AppByName("TSP")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewRunCache()
	x := Experiment{
		App: app, Scale: apps.Tiny, Optimized: true,
		Topo:   topology.DAS(),
		Params: network.DefaultParams().WithWAN(10*sim.Millisecond, 1e6),
		Regime: regime.Params{Spec: "vary:20ms:0.5:100ms", Seed: 42},
	}
	first, err := x.RunCached(cache)
	if err != nil {
		t.Fatal(err)
	}
	second, err := x.RunCached(cache)
	if err != nil {
		t.Fatal(err)
	}
	if first.Elapsed != second.Elapsed || first.Events != second.Events {
		t.Errorf("cached rerun differs: (%v, %d ev) vs (%v, %d ev)",
			first.Elapsed, first.Events, second.Elapsed, second.Events)
	}
	if st := cache.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("two identical vary runs: hits=%d misses=%d, want one simulation and one memory hit", st.Hits, st.Misses)
	}
}

// TestForEachReportsAllErrors pins the error-aggregation contract: two
// failing shards must both surface in the joined error, not just the first.
func TestForEachReportsAllErrors(t *testing.T) {
	errA := errors.New("shard 2 exploded")
	errB := errors.New("shard 5 exploded")
	err := forEach(8, func(i int) error {
		switch i {
		case 2:
			return errA
		case 5:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Errorf("joined error does not wrap first failure: %v", err)
	}
	if !errors.Is(err, errB) {
		t.Errorf("joined error does not wrap second failure: %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "shard 2") || !strings.Contains(err.Error(), "shard 5") {
		t.Errorf("joined message missing a shard: %v", err)
	}
}

// TestForEachWeightedRunsAll checks weighted dispatch still visits every
// index exactly once and aggregates results at their original positions.
func TestForEachWeightedRunsAll(t *testing.T) {
	const n = 17
	visited := make([]int, n)
	var mu sync.Mutex
	err := forEachWeighted(n, func(i int) float64 { return float64(i % 5) }, nil, func(i int) error {
		mu.Lock()
		visited[i]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range visited {
		if c != 1 {
			t.Errorf("index %d visited %d times", i, c)
		}
	}
}

// graphTestExperiment is a cheap recording: Tiny TSP at the reference
// point.
func graphTestExperiment(t *testing.T) Experiment {
	t.Helper()
	app, err := AppByName("TSP")
	if err != nil {
		t.Fatal(err)
	}
	return Experiment{App: app, Scale: apps.Tiny, Topo: topology.DAS(), Params: ReferenceParams()}
}

// TestRecordedGraphSingleflight: concurrent requesters of one key share a
// single recording.
func TestRecordedGraphSingleflight(t *testing.T) {
	x := graphTestExperiment(t)
	cache := NewRunCache()
	const callers = 6
	graphs := make([]*analytic.Graph, callers)
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, fail, err := cache.RecordedGraph("singleflight", x, nil)
			if err != nil || fail != nil {
				t.Errorf("caller %d: %v, %v", i, fail, err)
			}
			graphs[i] = g
		}()
	}
	wg.Wait()
	if s := cache.CacheStats(); s.GraphMisses != 1 || s.GraphHits != callers-1 {
		t.Errorf("stats %+v; want 1 recording and %d memory hits", s, callers-1)
	}
	for i, g := range graphs {
		if g == nil || g != graphs[0] {
			t.Fatalf("caller %d got graph %p, caller 0 %p", i, g, graphs[0])
		}
	}
}

// TestRecordedGraphKilledSharesFailure: a recording the policy's budget
// kills is memoized as its *CellFailure, which the next requester gets
// without re-running, and it leaves no graph entry on disk.
func TestRecordedGraphKilledSharesFailure(t *testing.T) {
	x := graphTestExperiment(t)
	dir := t.TempDir()
	cache := NewRunCache()
	if err := cache.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	pol := &RunPolicy{Budget: sim.Budget{MaxVirtualTime: sim.Millisecond}}
	_, first, err := cache.RecordedGraph("killed", x, pol)
	if err != nil || first == nil || first.Kind != "time-budget" {
		t.Fatalf("first request: failure %+v, error %v; want a time-budget failure", first, err)
	}
	g, second, err := cache.RecordedGraph("killed", x, pol)
	if err != nil || g != nil || second != first {
		t.Fatalf("second request: graph %p, failure %p, error %v; want the first failure %p", g, second, err, first)
	}
	if s := cache.CacheStats(); s.GraphMisses != 1 || s.GraphHits != 1 {
		t.Errorf("stats %+v; want 1 recording and 1 memory hit", s)
	}
	if n := len(pol.Failures()); n != 1 {
		t.Errorf("policy noted %d failures; want 1 (no re-run)", n)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*"+graphSuffix)); len(names) != 0 {
		t.Errorf("a killed recording wrote %v", names)
	}
}

// raceDetector reports a -race build (race_test.go).
var raceDetector bool

// TestWarmLookupAllocCap gates what one disk hit through RunCached
// allocates on a fresh cache, the unit of a warm sweep. It was 1,632 B in
// 12 allocations while the key went through a json.Encoder, the header
// was a copy of its own, and the memory layer made a channel per slot in
// a map keyed by the whole RunKey; it is 944 B in 7 now. The best of
// three rounds of 200 hits is taken, so a GC emptying the buffer pools
// mid-round does not count.
func TestWarmLookupAllocCap(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	const capBytes, capAllocs = 1300, 10
	x := diskTestExperiment(t)
	dir := t.TempDir()
	fill := NewRunCache()
	if err := fill.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := x.RunCached(fill); err != nil {
		t.Fatal(err)
	}
	const n = 200
	bytes, allocs := math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		caches := make([]*RunCache, n)
		for i := range caches {
			caches[i] = NewRunCache()
			if err := caches[i].SetDir(dir); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, c := range caches {
			if _, err := x.RunCached(c); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		for _, c := range caches {
			if s := c.CacheStats(); s.DiskHits != 1 || s.Misses != 0 {
				t.Fatalf("stats = %+v; want one disk hit", s)
			}
		}
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/n)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/n)
	}
	if bytes > capBytes || allocs > capAllocs {
		t.Errorf("one warm disk hit allocates %.0f B in %.1f allocations, cap %d B in %d", bytes, allocs, capBytes, capAllocs)
	}
}

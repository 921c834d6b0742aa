package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

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
	_, missesAfterFirst := cache.Stats()
	if missesAfterFirst == 0 {
		t.Fatal("first sweep reported no cache misses; nothing was simulated?")
	}
	p2, err := Figure3(apps.Tiny, opts)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := cache.Stats()
	if hits == 0 {
		t.Fatalf("second identical sweep produced no cache hits (misses=%d)", misses)
	}
	if misses != missesAfterFirst {
		t.Errorf("second sweep simulated %d new runs; want 0", misses-missesAfterFirst)
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
	if _, misses := cache.Stats(); misses != 1 {
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
	hits, misses := cache.Stats()
	if hits != 0 || misses != 0 || cache.Len() != 0 {
		t.Errorf("traced run touched the cache: hits=%d misses=%d len=%d", hits, misses, cache.Len())
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
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Errorf("two identical vary runs: hits=%d misses=%d, want one simulation and one memory hit", hits, misses)
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

package core

import (
	"os"
	"sync"
	"sync/atomic"

	"twolayer/internal/apps"
	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
)

// RunKey identifies a deterministic experiment: everything that influences
// the result of an untraced, unconfigured run. Two experiments with equal
// keys produce bit-identical Results, so the sweep layer may share one run
// between them.
type RunKey struct {
	App       string
	Scale     apps.Scale
	Optimized bool
	// Topo is the canonical topology string (e.g. "4x8"); topologies render
	// identically iff they are the same machine shape.
	Topo   string
	Params network.Params
	Seed   int64
	// WANTopo is the wide-area graph's canonical spec, "" for the default
	// clique. omitzero keeps the clique JSON encoding — and therefore every
	// pre-topology on-disk cache entry's content address — byte-identical.
	WANTopo string `json:",omitzero"`
	// Faults extends the key for fault-injected runs. omitzero keeps the
	// fault-free JSON encoding — and therefore every existing on-disk cache
	// entry's content address — byte-identical to the pre-fault format.
	Faults faults.Params `json:",omitzero"`
	// Regime and Adaptive extend the key for dynamic-regime runs; omitzero
	// preserves every regime-free entry's content address, exactly like
	// WANTopo and Faults before them.
	Regime   regime.Params `json:",omitzero"`
	Adaptive bool          `json:",omitzero"`
}

// runEntry is a singleflight slot: the first requester computes, everyone
// else blocks on done and shares the outcome.
type runEntry struct {
	done chan struct{}
	res  par.Result
	err  error
}

// RunCache memoizes experiment results across a sweep. The figures share
// many cells — every Figure 4 point lies on a Figure 3 row, the gap
// analysis reuses Figure 3 panels, and all of them re-run the same
// single-cluster baselines — so a process-wide cache removes whole
// duplicate simulations rather than shaving per-event costs. It is safe
// for concurrent use, and concurrent requests for the same key run the
// simulation only once (the duplicates wait and share).
//
// With SetDir, the cache gains a persistent content-addressed layer (see
// diskcache.go): in-memory misses consult the directory before
// simulating, and fresh results are written back, so a rerun in a new
// process replays finished work from disk.
type RunCache struct {
	mu      sync.Mutex
	entries map[RunKey]*runEntry
	graphs  map[RunKey]*graphEntry // recorded dependency graphs (graphcache.go)
	dir     string                 // persistent layer root; "" = memory only
	hits    atomic.Uint64
	misses  atomic.Uint64
	disk    atomic.Uint64
	stale   atomic.Uint64
	ghits   atomic.Uint64
	gmisses atomic.Uint64
	gdisk   atomic.Uint64
}

// NewRunCache returns an empty cache.
func NewRunCache() *RunCache {
	return &RunCache{
		entries: make(map[RunKey]*runEntry),
		graphs:  make(map[RunKey]*graphEntry),
	}
}

// DefaultCache is the process-wide cache the sweep entry points use unless
// given their own.
var DefaultCache = NewRunCache()

// Stats reports how many lookups were served from the cache (including
// waits on an in-flight duplicate) and how many ran a simulation.
func (c *RunCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// CacheStats is a snapshot of the cache's effectiveness counters.
type CacheStats struct {
	// Hits were served from memory (including waits on in-flight runs).
	Hits uint64
	// DiskHits were replayed from the persistent layer.
	DiskHits uint64
	// Misses ran a real simulation.
	Misses uint64
	// Stale counts on-disk entries that existed but were unusable (corrupt
	// body, foreign code fingerprint, or filename collision); each was
	// recomputed and overwritten.
	Stale uint64
	// GraphHits, GraphDiskHits and GraphMisses are the recorded-graph
	// layer's counters: served from memory, replayed from disk, and
	// recorded by simulating at the reference point. Unusable graph files
	// count into Stale.
	GraphHits     uint64
	GraphDiskHits uint64
	GraphMisses   uint64
}

// CacheStats returns all counters at once.
func (c *RunCache) CacheStats() CacheStats {
	return CacheStats{
		Hits:          c.hits.Load(),
		DiskHits:      c.disk.Load(),
		Misses:        c.misses.Load(),
		Stale:         c.stale.Load(),
		GraphHits:     c.ghits.Load(),
		GraphDiskHits: c.gdisk.Load(),
		GraphMisses:   c.gmisses.Load(),
	}
}

// SetDir attaches (or with "" detaches) the persistent layer, creating the
// directory if needed.
func (c *RunCache) SetDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.dir = dir
	c.mu.Unlock()
	return nil
}

// Dir returns the persistent layer root, "" if memory-only.
func (c *RunCache) Dir() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dir
}

// Len returns the number of memoized results.
func (c *RunCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Reset drops all in-memory results and zeroes the counters; the
// persistent layer (and its attachment) is untouched. Outstanding waiters
// on in-flight entries are unaffected.
func (c *RunCache) Reset() {
	c.mu.Lock()
	c.entries = make(map[RunKey]*runEntry)
	c.graphs = make(map[RunKey]*graphEntry)
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
	c.disk.Store(0)
	c.stale.Store(0)
	c.ghits.Store(0)
	c.gmisses.Store(0)
	c.gdisk.Store(0)
}

// forget drops the memoized entry for key, if any. The supervision layer
// uses it after a transient (wall-clock) failure so a retry re-runs the
// simulation instead of replaying the memoized error. Waiters already
// sharing the dropped entry are unaffected.
func (c *RunCache) forget(key RunKey) {
	if c == nil {
		return
	}
	c.mu.Lock()
	delete(c.entries, key)
	c.mu.Unlock()
}

// cloneResult gives each caller private slices so one consumer mutating a
// result cannot corrupt the cache.
func cloneResult(r par.Result) par.Result {
	out := r
	if r.PerProcFinish != nil {
		out.PerProcFinish = append([]sim.Time(nil), r.PerProcFinish...)
	}
	if r.PerProcCompute != nil {
		out.PerProcCompute = append([]sim.Time(nil), r.PerProcCompute...)
	}
	if r.ClusterWANOut != nil {
		out.ClusterWANOut = append([]network.LinkStats(nil), r.ClusterWANOut...)
	}
	return out
}

// cacheable reports whether the experiment's result is fully determined by
// its RunKey. Verification re-runs the computation for its side effects,
// and a Trace sink observes the run in a way the key cannot capture, so
// those runs bypass the cache.
func (x Experiment) cacheable() bool {
	return !x.Verify && x.Trace == nil
}

// Key returns the experiment's identity for caching.
func (x Experiment) Key() RunKey {
	return RunKey{
		App:       x.App.Name,
		Scale:     x.Scale,
		Optimized: x.Optimized,
		Topo:      x.Topo.String(),
		Params:    x.Params,
		Seed:      DefaultSeed,
		WANTopo:   x.WAN.CacheKey(),
		Faults:    x.Faults,
		Regime:    x.Regime,
		Adaptive:  x.Adaptive,
	}
}

// RunCached executes the experiment through the cache: a repeated
// configuration returns the memoized result without simulating, from
// memory first and then (when a directory is attached) from disk. Errors
// are memoized in memory only — a configuration that deadlocks will keep
// reporting it rather than re-deadlocking per lookup, but never poisons
// the persistent layer. Experiments the key cannot describe (Verify,
// Trace) fall through to a plain Run.
func (x Experiment) RunCached(c *RunCache) (par.Result, error) {
	if c == nil || !x.cacheable() {
		return x.Run()
	}
	key := x.Key()
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		<-e.done
		return cloneResult(e.res), e.err
	}
	e := &runEntry{done: make(chan struct{})}
	c.entries[key] = e
	dir := c.dir
	c.mu.Unlock()
	if dir != "" {
		res, ok, stale := loadDisk(dir, key)
		if stale {
			c.stale.Add(1)
		}
		if ok {
			c.disk.Add(1)
			e.res = res
			close(e.done)
			return cloneResult(e.res), nil
		}
	}
	c.misses.Add(1)
	e.res, e.err = x.Run()
	close(e.done)
	if dir != "" && e.err == nil {
		storeDisk(dir, key, e.res)
	}
	return cloneResult(e.res), e.err
}

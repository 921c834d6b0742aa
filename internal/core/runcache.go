package core

import (
	"hash/maphash"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"twolayer/internal/analytic"
	"twolayer/internal/apps"
	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/regime"
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

// RunCache memoizes experiment results across a sweep. The figures share
// many cells — the Figure 4 bandwidth curve lies on Figure 3's 3.3 ms row,
// Table 1's 32-processor runs are the single-cluster baselines every
// relative metric divides by — so a process-wide cache removes whole
// duplicate simulations rather than shaving per-event costs. It is safe
// for concurrent use, and concurrent requests for the same key run the
// simulation only once (the duplicates wait and share).
//
// With SetDir, the cache gains a persistent content-addressed layer (see
// diskcache.go): in-memory misses consult the directory before
// simulating, and fresh results are written back, so a rerun in a new
// process replays finished work from disk.
type RunCache struct {
	mu     sync.Mutex // guards dir
	dir    string     // persistent layer root; "" = memory only
	runs   memo[par.Result]
	graphs memo[*analytic.Graph] // recorded dependency graphs (graphcache.go)
	stale  atomic.Uint64         // unusable entries of either layer
}

// NewRunCache returns an empty cache.
func NewRunCache() *RunCache {
	c := new(RunCache)
	c.Reset()
	return c
}

// DefaultCache is the process-wide cache the sweep entry points use unless
// given their own.
var DefaultCache = NewRunCache()

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
		Hits:          c.runs.hits.Load(),
		DiskHits:      c.runs.disk.Load(),
		Misses:        c.runs.misses.Load(),
		Stale:         c.stale.Load(),
		GraphHits:     c.graphs.hits.Load(),
		GraphDiskHits: c.graphs.disk.Load(),
		GraphMisses:   c.graphs.misses.Load(),
	}
}

// SetDir attaches (or with "" detaches) the persistent layer, creating the
// directory if needed. The directory is kept cleaned, so entry paths are
// joined by concatenation.
func (c *RunCache) SetDir(dir string) error {
	if dir != "" {
		dir = filepath.Clean(dir)
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

// Reset drops all in-memory results and zeroes the counters; the
// persistent layer (and its attachment) is untouched. Outstanding waiters
// on in-flight entries are unaffected.
func (c *RunCache) Reset() {
	c.runs.reset()
	c.graphs.reset()
	c.stale.Store(0)
}

// memo is one layer of RunCache: a singleflight map in front of the
// persistent layer. The first requester of a key reads the key's entry
// from disk or, failing that, computes the value and writes it back; every
// later requester shares the outcome, waiting on the key's slot while it
// is in flight. Every outcome is memoized in memory, failures included — a
// configuration that deadlocks keeps reporting it rather than
// re-deadlocking per lookup — but only a value computed without failure
// reaches the disk.
//
// slots is keyed by the key's 64-bit digest, so map growth moves 16-byte
// entries; a slot keeps its full key, and keys whose digests collide chain.
type memo[T any] struct {
	mu                 sync.Mutex
	slots              map[uint64]*slot[T]
	hits, disk, misses atomic.Uint64
}

// keySeed seeds every memo's key digests.
var keySeed = maphash.MakeSeed()

// slot is one key's outcome; it is written once, before finished is set.
// The wait channel is made only for a requester that finds the slot in
// flight. finished and wait are guarded by the memo's mu.
type slot[T any] struct {
	key      RunKey
	next     *slot[T] // a key with the same digest
	finished bool
	wait     chan struct{}
	v        T
	fail     *CellFailure
	err      error
}

// get returns key's outcome from memory, from c's directory through cd,
// or from compute, in that order.
func (m *memo[T]) get(c *RunCache, key RunKey, cd *codec[T], compute func() (T, *CellFailure, error)) (T, *CellFailure, error) {
	h := maphash.Comparable(keySeed, key)
	m.mu.Lock()
	for s := m.slots[h]; s != nil; s = s.next {
		if s.key != key {
			continue
		}
		var wait chan struct{}
		if !s.finished {
			if s.wait == nil {
				s.wait = make(chan struct{})
			}
			wait = s.wait
		}
		m.mu.Unlock()
		m.hits.Add(1)
		if wait != nil {
			<-wait
		}
		return s.v, s.fail, s.err
	}
	s := &slot[T]{key: key, next: m.slots[h]}
	m.slots[h] = s
	m.mu.Unlock()
	dir := c.Dir()
	var dk diskKey
	if dir != "" {
		dk = newDiskKey(key)
		defer dk.release()
		v, ok, stale := cd.load(dir, dk)
		if stale {
			c.stale.Add(1)
		}
		if ok {
			m.disk.Add(1)
			s.v = v
			m.finish(s)
			return v, nil, nil
		}
	}
	m.misses.Add(1)
	s.v, s.fail, s.err = compute()
	m.finish(s)
	if dir != "" && s.fail == nil && s.err == nil {
		cd.store(dir, dk, s.v)
	}
	return s.v, s.fail, s.err
}

// finish publishes s's outcome and wakes its waiters, if any.
func (m *memo[T]) finish(s *slot[T]) {
	m.mu.Lock()
	s.finished = true
	wait := s.wait
	m.mu.Unlock()
	if wait != nil {
		close(wait)
	}
}

// reset forgets every slot and zeroes the counters.
func (m *memo[T]) reset() {
	m.mu.Lock()
	m.slots = make(map[uint64]*slot[T])
	m.mu.Unlock()
	m.hits.Store(0)
	m.disk.Store(0)
	m.misses.Store(0)
}

// cloneResult gives each caller a private ClusterWANOut, so one consumer
// mutating a result cannot corrupt the cache.
func cloneResult(r par.Result) par.Result {
	if r.ClusterWANOut != nil {
		r.ClusterWANOut = append([]network.LinkStats(nil), r.ClusterWANOut...)
	}
	return r
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
// are memoized in memory only. Experiments the key cannot describe
// (Verify, Trace) fall through to a plain Run.
func (x Experiment) RunCached(c *RunCache) (par.Result, error) {
	if c == nil || !x.cacheable() {
		return x.Run()
	}
	res, _, err := c.runs.get(c, x.Key(), &runCodec, func() (par.Result, *CellFailure, error) {
		res, err := x.Run()
		return res, nil, err
	})
	return cloneResult(res), err
}

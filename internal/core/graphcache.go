package core

import (
	"bytes"

	"twolayer/internal/analytic"
	"twolayer/internal/par"
)

// The recorded-graph layer of RunCache: dependency graphs captured at the
// analytic reference point, memoized in memory and — when a directory is
// attached — content-addressed on disk next to the run entries. A graph is
// fully determined by the same RunKey as the reference run it was recorded
// from, so the key, the envelope and the fingerprint gating are shared
// with the result layer (diskcache.go); a graph entry's payload is the
// graph's binary encoding, and its file has the .graph suffix. Like the
// result layer, all disk failures fail open (re-record, never error) and
// writes are atomic.

// graphEntry is the singleflight slot for one recorded graph. A recording
// that the policy gave up on memoizes its CellFailure so every requester
// shares the outcome instead of re-running a doomed simulation.
type graphEntry struct {
	done chan struct{}
	g    *analytic.Graph
	fail *CellFailure
	err  error
}

// loadGraphDisk looks k up in dir; stale reports a present-but-unusable
// file that should be overwritten.
func loadGraphDisk(dir string, k diskKey) (g *analytic.Graph, ok, stale bool) {
	ok, stale = readEntry(dir, k, graphSuffix, func(payload []byte) (err error) {
		g, err = analytic.DecodeBinary(bytes.NewReader(payload))
		return err
	})
	if !ok {
		g = nil
	}
	return g, ok, stale
}

// storeGraphDisk writes the graph for k atomically; errors are dropped
// (the cache fails open).
func storeGraphDisk(dir string, k diskKey, g *analytic.Graph) {
	buf := bytes.NewBuffer(bytes.Clone(k.header))
	if g.EncodeBinary(buf) != nil {
		return
	}
	writeEntry(dir, k, graphSuffix, buf.Bytes())
}

// RecordedGraph returns the dependency graph of experiment x recorded at
// its configured network point, recording it with a simulated run only on
// the first request per key (concurrent requesters share the recording,
// reruns in a new process replay it from disk). The run executes under pol
// like any sweep cell — budgets, deadline — and a supervised kill
// comes back as a *CellFailure, shared by all requesters of the key. A
// recording the capability table refuses (par.Record with x's features)
// returns its *par.Unsupported before any lookup.
func (c *RunCache) RecordedGraph(label string, x Experiment, pol *RunPolicy) (*analytic.Graph, *CellFailure, error) {
	if err := x.check(par.Record); err != nil {
		return nil, nil, err
	}
	key := x.Key()
	c.mu.Lock()
	if e, ok := c.graphs[key]; ok {
		c.mu.Unlock()
		c.ghits.Add(1)
		<-e.done
		return e.g, e.fail, e.err
	}
	e := &graphEntry{done: make(chan struct{})}
	c.graphs[key] = e
	dir := c.dir
	c.mu.Unlock()
	defer close(e.done)
	var dk diskKey
	if dir != "" {
		dk = newDiskKey(key)
		g, ok, stale := loadGraphDisk(dir, dk)
		if stale {
			c.stale.Add(1)
		}
		if ok {
			c.gdisk.Add(1)
			e.g = g
			return e.g, nil, nil
		}
	}
	c.gmisses.Add(1)
	rec := analytic.NewRecorder(x.Topo, x.Params)
	x.Trace = rec
	var res par.Result
	res, e.fail, e.err = pol.run(label, x, c)
	if e.err != nil || e.fail != nil {
		return nil, e.fail, e.err
	}
	e.g, e.err = rec.Finish(res.Elapsed)
	if e.err != nil {
		return nil, nil, e.err
	}
	if dir != "" {
		storeGraphDisk(dir, dk, e.g)
	}
	return e.g, nil, nil
}

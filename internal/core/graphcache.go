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
// graph's binary encoding, and its file has the .graph suffix.

// graphCodec stores a graph as its binary encoding.
var graphCodec = codec[*analytic.Graph]{
	suffix: graphSuffix,
	decode: func(payload []byte) (*analytic.Graph, error) {
		return analytic.DecodeBinary(bytes.NewReader(payload))
	},
	encode: func(dst []byte, g *analytic.Graph) []byte {
		buf := bytes.NewBuffer(dst)
		if g.EncodeBinary(buf) != nil {
			return nil
		}
		return buf.Bytes()
	},
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
	return c.graphs.get(c, x.Key(), &graphCodec, func() (*analytic.Graph, *CellFailure, error) {
		rec := analytic.NewRecorder(x.Topo, x.Params)
		x.Trace = rec
		res, fail, err := pol.run(label, x, c)
		if err != nil || fail != nil {
			return nil, fail, err
		}
		g, err := rec.Finish(res.Elapsed)
		return g, nil, err
	})
}

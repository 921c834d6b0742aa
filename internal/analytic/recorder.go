package analytic

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
)

// Recorder is a trace sink that builds the dependency Graph of a run. It
// implements trace.OpSink, so passing it as Options.Trace makes the
// runtime stream compute spans, messages and receive matchings into it;
// the runtime rejects runs the replay model cannot represent (fault
// injection, the reliable transport, regimes, multi-hop wide-area graphs).
//
// Recording appends to flat arrays — amortized growth, no per-node
// allocation in steady state — and never perturbs the simulation: the
// sink only observes, and attaching it leaves every simulated quantity
// bit-identical (pinned by TestGoldenRunsWithRecorder in package core).
type Recorder struct {
	g   Graph
	err error

	// tag buffers the value from RecordSendTag until the send's
	// RecordMessage arrives (the network observer does not know tags);
	// tagPending tracks that a value is waiting.
	tag        int64
	tagPending bool
}

// NewRecorder prepares a recorder for a run on topo at the reference
// network point ref.
func NewRecorder(topo *topology.Topology, ref network.Params) *Recorder {
	r := &Recorder{}
	r.g.Procs = topo.Procs()
	r.g.Clusters = topo.Clusters()
	r.g.ClusterOf = make([]int32, topo.Procs())
	for rank := range r.g.ClusterOf {
		r.g.ClusterOf[rank] = int32(topo.ClusterOf(rank))
	}
	r.g.Ref = ref
	return r
}

// fail records the first problem seen; recording continues so the run is
// never perturbed, but Finish will refuse to hand out the graph.
func (r *Recorder) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// appendOp grows the three operation arrays in lockstep.
func (r *Recorder) appendOp(kind uint8, rank int32, arg int64) {
	if len(r.g.Ops) >= math.MaxInt32 {
		r.fail("analytic: run exceeds %d recordable operations", math.MaxInt32)
		return
	}
	r.g.Ops = append(r.g.Ops, kind)
	r.g.Rank = append(r.g.Rank, rank)
	r.g.Arg = append(r.g.Arg, arg)
}

// RecordSpan appends a compute span. Only the duration matters: the span's
// position in the operation stream fixes its place on the rank's timeline.
func (r *Recorder) RecordSpan(s trace.Span) {
	if s.Rank < 0 || s.Rank >= r.g.Procs {
		r.fail("analytic: span on invalid rank %d", s.Rank)
		return
	}
	if s.End < s.Start {
		r.fail("analytic: negative span on rank %d", s.Rank)
		return
	}
	r.appendOp(OpSpan, int32(s.Rank), int64(s.End-s.Start))
}

// RecordMessage appends a message record and its owning send operation.
// The network observer invokes it synchronously inside the send call, so
// message order is global send order — the order the shared FIFO links
// were booked in, which the evaluator replays.
func (r *Recorder) RecordMessage(m trace.Message) {
	if m.Kind != trace.KindData || m.Dup || m.Dropped {
		// Transport or fault traffic means the run violates the recorder's
		// preconditions; the runtime should have refused it.
		r.fail("analytic: unexpected %v message (dup=%v dropped=%v)", m.Kind, m.Dup, m.Dropped)
		return
	}
	if m.Src < 0 || m.Src >= r.g.Procs || m.Dst < 0 || m.Dst >= r.g.Procs {
		r.fail("analytic: message between invalid ranks %d -> %d", m.Src, m.Dst)
		return
	}
	if !r.tagPending {
		r.fail("analytic: message %d -> %d observed without a send tag", m.Src, m.Dst)
		return
	}
	idx := int64(len(r.g.MsgSrc))
	r.g.MsgSrc = append(r.g.MsgSrc, int32(m.Src))
	r.g.MsgDst = append(r.g.MsgDst, int32(m.Dst))
	r.g.MsgBytes = append(r.g.MsgBytes, m.Bytes)
	r.g.MsgTag = append(r.g.MsgTag, r.tag)
	r.tagPending = false
	r.appendOp(OpSend, int32(m.Src), idx)
}

// RecordSendTag buffers the application-level tag of the next message; the
// runtime calls it immediately before the send that triggers RecordMessage.
func (r *Recorder) RecordSendTag(tag int64) {
	if r.tagPending {
		r.fail("analytic: two send tags without an intervening message")
		return
	}
	r.tag, r.tagPending = tag, true
}

// RecordRecv appends a receive operation consuming message msg, together
// with the selection pattern that matched it.
func (r *Recorder) RecordRecv(rank int, msg int64, from int, tag int64, poll bool) {
	if msg < 0 || msg >= int64(len(r.g.MsgSrc)) {
		r.fail("analytic: recv of unrecorded message %d (have %d)", msg, len(r.g.MsgSrc))
		return
	}
	if int(r.g.MsgDst[msg]) != rank {
		r.fail("analytic: rank %d consumed message %d addressed to %d", rank, msg, r.g.MsgDst[msg])
		return
	}
	if from < 0 {
		from = -1
	}
	var p uint8
	if poll {
		p = 1
	}
	r.g.RecvFrom = append(r.g.RecvFrom, int32(from))
	r.g.RecvTag = append(r.g.RecvTag, tag)
	r.g.RecvPoll = append(r.g.RecvPoll, p)
	r.appendOp(OpRecv, int32(rank), msg)
}

// RecordTransport rejects reliable-transport activity: its retransmissions
// are invisible to the replay model.
func (r *Recorder) RecordTransport(ts trace.TransportStats) {
	if ts != (trace.TransportStats{}) {
		r.fail("analytic: run used the reliable transport (%+v)", ts)
	}
}

// Finish seals the recording with the run's completion time and returns
// the graph. The recorder must not be reused afterwards.
func (r *Recorder) Finish(elapsed sim.Time) (*Graph, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.tagPending {
		return nil, errors.New("analytic: send tag recorded without its message")
	}
	if elapsed <= 0 {
		return nil, errors.New("analytic: recording finished with non-positive elapsed time")
	}
	g := &r.g
	g.RefElapsed = elapsed
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// The run cache keeps the graph for the rest of the sweep, so hand it
	// over without the slack amortized growth left behind (up to as much
	// again as the arrays are long).
	g.Ops, g.Rank, g.Arg = slices.Clone(g.Ops), slices.Clone(g.Rank), slices.Clone(g.Arg)
	g.MsgSrc, g.MsgDst = slices.Clone(g.MsgSrc), slices.Clone(g.MsgDst)
	g.MsgBytes, g.MsgTag = slices.Clone(g.MsgBytes), slices.Clone(g.MsgTag)
	g.RecvFrom, g.RecvTag, g.RecvPoll = slices.Clone(g.RecvFrom), slices.Clone(g.RecvTag), slices.Clone(g.RecvPoll)
	return g, nil
}

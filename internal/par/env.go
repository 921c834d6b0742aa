// Package par is a message-passing SPMD runtime on top of the simulated
// two-layer interconnect — the analogue of the paper's Panda/Orca layer.
//
// A parallel program is a Job function executed once per processor. Each
// instance gets an Env with its global rank, cluster information, and
// blocking communication primitives (asynchronous sends, selective
// receives, RPC, barrier). All communication costs virtual time according
// to the network model; computation is charged explicitly with
// Env.Compute.
//
// # Process model
//
// A rank is a coroutine, and switching one in costs ten times what a plain
// event does, so the runtime only does it when the rank needs an input.
// Outputs are write-behind: Send and Compute never block. The first one an
// idle rank issues takes effect at once and books a continuation event for
// the moment it completes; those issued meanwhile queue up, and the
// continuation runs them in kernel context, one per event, each at exactly
// the virtual time a blocking call would have started. The rank is parked
// only by an input — Recv, RecvFrom, RecvN, TryRecv, Pending, Now,
// ClusterDown, a wide-area Send under the reliable transport (its window
// can block), or returning from the Job — and then waits until its queue
// has drained, so everything it observes is what a blocking runtime would
// have shown it. No virtual time, event or result differs.
//
// What does differ is host order: the code between two Env calls runs ahead
// of other ranks' events, up to the rank's next input. A program must
// therefore keep to the message-passing model it simulates:
//
//   - ranks exchange state only through messages. A receiver reads a
//     payload when it consumes the message (its receive returns, or the
//     RecvN callback runs), not when it is sent, so a payload handed to
//     Send belongs to the receiver until then. The sender may refill it
//     only after receiving a message that the receiver sent after
//     consuming it, directly or through ranks that waited for it. Water
//     refills a target's contribution after that target's next positions
//     arrive, Barnes-Hut a recipient's essential set after its next
//     bounding box, and Awari a round's sets after the next round's dense
//     exchange (a reduction that skips receives proves nothing). A payload
//     never written after its Send, as FFT's row sets are, needs no proof.
//     ASP's pivot rows are the one deliberate exception: the owner goes on
//     relaxing a row after broadcasting it, but its entries only fall and
//     stay lengths of real paths, so whichever later version a receiver
//     reads lies between Floyd-Warshall's row and the true distances, and
//     the result is exact (the proof is at asp's sendPivot);
//   - the callback of RecvN runs as each message turns up, possibly in
//     kernel context while the rank is parked, so it may only touch
//     rank-local state and must not call the Env.
package par

import (
	"fmt"
	"math/rand"

	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
)

// Job is the body of an SPMD program, run once per processor.
type Job func(e *Env)

// Env is one processor's view of the runtime.
type Env struct {
	rt   *runtime
	p    *sim.Proc
	rank int
	mb   mailbox
	rng  *rand.Rand

	nextReplyTag Tag

	// Write-behind state (see the package comment). busy means a
	// continuation event is pending: the rank's own clock is ahead of the
	// kernel's, and further outputs queue behind it (qhead/qtail, slab
	// index+1 into rt.ops). idle is where the rank parks until the queue
	// has drained; if it parked there on its way into a receive, the
	// request is already in mb (mb.sink != nil) for the continuation to arm.
	busy         bool
	qhead, qtail int32
	idle         sim.Cond
	got          Msg       // the message a plain receive was waiting for
	keep         func(Msg) // stores into got; the sink of every plain receive

	// Reliable-transport state, allocated lazily and only when the run has
	// fault injection (or Transport.Enabled) turned on.
	relS   []*relSender // per-destination go-back-N senders
	relExp []int64      // per-source next expected sequence number
}

// Rank returns the processor's global rank in [0, Size).
func (e *Env) Rank() int { return e.rank }

// Size returns the total number of processors.
func (e *Env) Size() int { return e.rt.topo.Procs() }

// Topology returns the machine shape.
func (e *Env) Topology() *topology.Topology { return e.rt.topo }

// Cluster returns the index of the processor's cluster.
func (e *Env) Cluster() int { return e.rt.topo.ClusterOf(e.rank) }

// Clusters returns the number of clusters.
func (e *Env) Clusters() int { return e.rt.topo.Clusters() }

// ClusterRank returns the processor's index within its cluster.
func (e *Env) ClusterRank() int { return e.rt.topo.RankInCluster(e.rank) }

// ClusterPeers returns the global ranks in the processor's own cluster.
func (e *Env) ClusterPeers() []int { return e.rt.topo.RanksIn(e.Cluster()) }

// Coordinator returns the designated coordinator rank of cluster c (its
// first rank), used by the cluster-aware optimizations.
func (e *Env) Coordinator(c int) int { return e.rt.topo.FirstRank(c) }

// SameCluster reports whether the given rank is in this processor's cluster.
func (e *Env) SameCluster(other int) bool { return e.rt.topo.SameCluster(e.rank, other) }

// Now returns the current virtual time. Reading the clock is an input: it
// parks the rank until its deferred outputs have run.
func (e *Env) Now() sim.Time {
	e.sync()
	return e.p.Now()
}

// Adaptive reports whether the run asked the application layers to adapt to
// a dynamic regime (Options.Adaptive with a regime configured). Static runs
// — and regime runs measuring the unadapted baseline — return false, and
// applications must then behave bit-identically to their pre-regime code.
func (e *Env) Adaptive() bool { return e.rt.adaptive }

// ClusterDown reports whether cluster c is churned out of the wide-area
// network at the current virtual time. Always false without a regime. The
// answer is a pure function of (regime, cluster, virtual time), identical
// on every rank that asks at the same instant — safe ground for collective
// adaptation decisions.
func (e *Env) ClusterDown(c int) bool {
	return e.rt.regime != nil && e.rt.regime.ClusterDown(c, e.Now())
}

// RegimeHasChurn reports whether the active regime includes whole-cluster
// churn. Adaptive applications use it to skip churn bookkeeping entirely
// under churn-free regimes.
func (e *Env) RegimeHasChurn() bool {
	return e.rt.regime != nil && e.rt.regime.HasChurn()
}

// Compute charges d of virtual computation time. It does not block: the
// time passes as a continuation event (or queues behind the one pending),
// and the rank runs on until it needs an input.
func (e *Env) Compute(d sim.Time) {
	if d <= 0 {
		return
	}
	if e.busy {
		e.enqueue(deferredOp{dst: opCompute, bytes: int64(d)})
		return
	}
	e.compute(d)
}

// compute starts d of computation at the kernel's current time. With a
// tracer attached the continuation's token carries the start time (+1, so
// zero still means "no span") and the span is emitted when it fires.
func (e *Env) compute(d sim.Time) {
	var token uint64
	if e.rt.tracer != nil {
		token = uint64(e.rt.k.Now()) + 1
	}
	e.occupy(d, token)
}

// occupy keeps the rank busy for d from now: a continuation takes the
// (time, seq) slot a blocking sleep's wake-up would have taken. Like that
// sleep, it is a no-op for d <= 0.
func (e *Env) occupy(d sim.Time, token uint64) {
	if d <= 0 {
		return
	}
	e.busy = true
	e.rt.k.CallAfter(d, e, token)
}

// sync parks the rank until every output it has issued has run, so that
// the kernel's clock is the rank's own again.
func (e *Env) sync() {
	if e.busy {
		e.idle.WaitExplained(e.p, e)
	}
}

// BlockReason renders what a rank parked in sync is waiting for; it
// implements sim.BlockExplainer and is only called for diagnostics.
func (e *Env) BlockReason() string {
	n := 0
	for ref := e.qhead; ref != 0; ref = e.rt.op(ref).next {
		n++
	}
	s := fmt.Sprintf("%d deferred op(s) pending", n)
	if e.mb.sink != nil {
		s += ", then " + e.mb.BlockReason()
	}
	return s
}

// HandleEvent implements sim.EventHandler: the rank's continuation. The
// output in flight has just completed; run the queued ones that start now,
// one per event, in kernel context — the same network, recorder and tracer
// calls at the same virtual times and in the same scheduling slots as if
// the rank had been woken to make them. Once the queue is empty the parked
// rank is woken, or, if it parked to receive and its messages are not all
// there yet, handed to the mailbox without a wake-up.
func (e *Env) HandleEvent(token uint64) {
	e.rt.k.NoteProgress() // the process wake-up this replaces counted as progress
	if token != 0 {
		e.rt.tracer.RecordSpan(trace.Span{Rank: e.rank, Start: sim.Time(token - 1), End: e.rt.k.Now()})
	}
	e.busy = false
	for e.qhead != 0 && !e.busy {
		op := e.dequeue()
		if op.dst == opCompute {
			e.compute(sim.Time(op.bytes))
		} else {
			e.post(int(op.dst), op.tag, op.data, op.bytes)
		}
	}
	if e.busy {
		return
	}
	if mb := &e.mb; mb.sink != nil && !mb.arm() {
		e.idle.MoveWaiter(&mb.cond, mb)
		return
	}
	e.idle.Signal()
}

// ComputeUnits charges units*costPerUnit of virtual computation, a
// convenience for the applications' cost models.
func (e *Env) ComputeUnits(units int64, costPerUnit sim.Time) {
	e.Compute(sim.Time(units) * costPerUnit)
}

// Rand returns this rank's deterministic random stream. The stream is
// created on first use: seeding a math/rand source is surprisingly
// expensive (the Mitchell-Moore generator warms a 607-entry table), and
// most applications never draw from it.
func (e *Env) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.rt.seed + int64(e.rank)*7919))
	}
	return e.rng
}

// Send asynchronously sends data to rank dst; the message occupies bytes of
// simulated wire size. Send never blocks the caller: the modelled
// per-message software overhead delays the rank's next output, not the
// rank. The one exception is a wide-area send under the reliable transport,
// whose window may be full; it waits for the rank's earlier outputs and
// runs on the rank's own stack.
func (e *Env) Send(dst int, tag Tag, data any, bytes int64) {
	if dst < 0 || dst >= e.Size() {
		panic(fmt.Sprintf("par: send to invalid rank %d", dst))
	}
	if e.rt.rel != nil && !e.rt.topo.SameCluster(e.rank, dst) {
		// relSend may block while the go-back-N window is full. (No recorder
		// stamp here: recording refuses runs with the reliable transport.)
		e.sync()
		e.relSend(dst, Msg{From: e.rank, Tag: tag, Data: data, Bytes: bytes}, bytes)
		e.occupy(e.rt.net.Params().SendOverhead, 0)
		return
	}
	if e.busy {
		e.enqueue(deferredOp{dst: int32(dst), tag: tag, data: data, bytes: bytes})
		return
	}
	e.post(dst, tag, data, bytes)
}

// post books one send on the network at the kernel's current time and
// starts the sender's software overhead. It runs on the rank's stack for an
// idle rank's first output and in kernel context for deferred ones.
func (e *Env) post(dst int, tag Tag, data any, bytes int64) {
	m := Msg{From: e.rank, Tag: tag, Data: data, Bytes: bytes}
	if e.rt.rec != nil {
		// Stamp the message with its global send index so the receive hooks
		// can name it. The network observer fires synchronously inside the
		// send below, exactly once per send (the recorder refuses runs
		// where that would not hold), so this counter stays in lockstep with
		// the recorder's RecordMessage stream.
		m.seq = e.rt.recSeq + 1
		e.rt.recSeq++
		// The network observer reports only wire-level fields; hand the
		// recorder the application tag ahead of the RecordMessage it will
		// receive synchronously inside the send below.
		e.rt.rec.RecordSendTag(int64(tag))
	}
	e.rt.send(e.rank, bytes, network.ClassData, envelope{m: m, dst: int32(dst), kind: envData})
	e.occupy(e.rt.net.Params().SendOverhead, 0)
}

// recorded reports a consumed message and the receive pattern that matched
// it to the attached op-level recorder, if any. The no-recorder path is a
// single nil check.
func (e *Env) recorded(m Msg, from int, tag Tag, poll bool) Msg {
	if e.rt.rec != nil && m.seq > 0 {
		e.rt.rec.RecordRecv(e.rank, m.seq-1, from, int64(tag), poll)
	}
	return m
}

// await receives n messages matching (from, tag) into sink and returns
// when the last one is in. A rank with outputs still deferred parks once,
// on idle, and its continuation arms the request when the queue has
// drained; an idle rank arms it itself and waits on the mailbox. Either way the
// rank is woken at most once.
func (e *Env) await(from int, tag Tag, n int, sink func(Msg)) {
	mb := &e.mb
	mb.request(from, tag, n, sink)
	if e.busy {
		e.idle.WaitExplained(e.p, e)
	} else if !mb.arm() {
		mb.cond.WaitExplained(e.p, mb)
	}
	mb.sink = nil
}

// recv blocks until a message matching the pattern is available and
// returns it.
func (e *Env) recv(from int, tag Tag) Msg {
	e.await(from, tag, 1, e.keep)
	m := e.got
	e.got = Msg{}
	return e.recorded(m, from, tag, false)
}

// Recv blocks until a message with the given tag arrives (from anyone) and
// returns it.
func (e *Env) Recv(tag Tag) Msg { return e.recv(AnySender, tag) }

// RecvFrom blocks until a message with the given tag arrives from rank from.
func (e *Env) RecvFrom(from int, tag Tag) Msg { return e.recv(from, tag) }

// RecvN receives n messages matching (from, tag) — the same messages, in
// the same arrival order, that n successive receives of that pattern would
// return — and passes each to fn. The rank is woken once, by the delivery
// that completes the batch, instead of once per message; fn runs as each
// message turns up, possibly in kernel context while the rank is parked,
// so it may only touch rank-local state and must not call the Env.
//
// An op-level recorder is told of each message as it is handed to fn, which
// is the instant a per-message receive would have returned it, so the
// recorded graph is the one n receives produce.
func (e *Env) RecvN(from int, tag Tag, n int, fn func(Msg)) {
	if n <= 0 {
		return
	}
	if e.rt.rec != nil {
		each := fn
		fn = func(m Msg) { each(e.recorded(m, from, tag, false)) }
	}
	e.await(from, tag, n, fn)
}

// TryRecv returns a queued matching message without blocking on the
// mailbox (it does wait for the rank's own deferred outputs, like every
// input).
func (e *Env) TryRecv(from int, tag Tag) (Msg, bool) {
	e.sync()
	m, ok := e.mb.take(from, tag)
	if ok {
		m = e.recorded(m, from, tag, true)
	}
	return m, ok
}

// Pending reports the number of undelivered messages in this rank's mailbox.
func (e *Env) Pending() int {
	e.sync()
	return e.mb.pending()
}

// replyTag allocates a unique tag for an RPC reply. Reply tags are negative
// and even, so they can never collide with application tags (small
// non-negative ints) or AnyTag.
func (e *Env) replyTag() Tag {
	e.nextReplyTag -= 2
	return e.nextReplyTag
}

// Call performs a blocking RPC: it sends data to dst with the given tag and
// waits for the reply. The server must answer with Reply. reqBytes and the
// reply's bytes are charged to the network separately.
func (e *Env) Call(dst int, tag Tag, data any, reqBytes int64) Msg {
	rt := e.replyTag()
	e.Send(dst, tag, Request{ReplyTo: e.rank, ReplyTag: rt, Data: data}, reqBytes)
	return e.RecvFrom(dst, rt)
}

// Request is the envelope Call sends; servers receive it as the message's
// Data and answer with Reply.
type Request struct {
	ReplyTo  int
	ReplyTag Tag
	Data     any
}

// Reply answers an RPC request previously received by this rank.
func (e *Env) Reply(req Request, data any, bytes int64) {
	e.Send(req.ReplyTo, req.ReplyTag, data, bytes)
}

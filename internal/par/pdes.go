package par

// Cluster-partitioned parallel execution. Under PDES mode (Options.Workers
// >= 1) each cluster becomes a logical process with its own kernel and
// network instance — a shard — synchronized by sim.RunWindows under the
// WAN-latency lookahead. The partitioning works because the model's shared
// mutable state cleaves along cluster lines:
//
//   - NICs, mailboxes, per-rank envelopes: owned by the rank's cluster;
//   - the directed wide-area link (src,dst) and its fault counter: only
//     ever touched by sends originating in src. On a multi-hop wide-area
//     graph (Options.WAN) this ownership breaks — forwarding shares links
//     across source clusters — so the network defers all wide-area hop
//     bookings to the barrier, which replays them on shard 0's network in
//     the same global (Sent, Chain) order the sequential engine books in
//     (see network.TransitWAN);
//   - the destination gateway: only touched by incoming wide-area traffic,
//     which the window router replays at barriers in a deterministic order
//     (send time, then the send events' causal birth chains) — the same
//     order the sequential kernel books it in, because windows partition
//     virtual time and equal-time sends fire in birth-chain order there.
//
// Everything an LP does between barriers is exactly the sequential kernel's
// projection onto that cluster, so results are bit-identical to sequential
// execution at any worker count; the differential tests in par and core
// enforce this against all golden variants and randomized configurations.

import (
	"fmt"
	"slices"
	"sync"

	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/trace"
)

// shard is one logical process: a cluster's kernel, its network instance,
// and the LP-local runtime state that the sequential path keeps run-wide.
// Sequential runs use a single shard covering every rank, which makes the
// two modes share all code below this layer.
type shard struct {
	rt    *runtime
	id    int // cluster index; 0 for the sequential singleton
	k     *sim.Kernel
	net   *network.Network
	ranks []int // global ranks hosted on this shard

	// pend pools the envelopes of messages in flight on the direct (non-
	// reliable) path: a send stages {destination mailbox, message} here and
	// hands the network only the shard (a sim.EventHandler) plus the slot
	// token, so the steady-state send->deliver cycle allocates nothing.
	// Slots are recycled through a free list (index+1 encoding; 0 = none).
	// The slab is strictly LP-local: only same-shard deliveries use it
	// (cross-shard sends carry closures), so no other LP ever touches it.
	pend     []pendingMsg
	pendFree int32

	// ops is the slab behind every hosted rank's queue of deferred outputs
	// (Env.qhead/qtail), free-listed like pend and as LP-local: opsUsed
	// slots have ever been handed out — the most outputs the shard's ranks
	// had queued at once — and opsFree heads the recycled ones. It grows a
	// chunk at a time, and the chunks come from and return to opChunks.
	ops     []*opChunk
	opsUsed int32
	opsFree int32

	// out buffers this shard's outgoing wide-area messages during a window;
	// the barrier Flush drains it. Unused (nil) in sequential mode, where
	// the network delivers wide-area messages inline.
	out []network.WANArrival

	// relStats and relErrs are the shard's slice of the reliable-transport
	// counters and channel failures; summed (concatenated) in shard order
	// into the run's Result.
	relStats trace.TransportStats
	relErrs  []error
}

// pendingMsg is one pooled in-flight message envelope.
type pendingMsg struct {
	mb   *mailbox
	m    Msg
	next int32
}

// stage places a message bound for mb into the delivery pool and returns
// its token for SendHandle.
func (sh *shard) stage(mb *mailbox, m Msg) uint64 {
	var idx int32
	if sh.pendFree != 0 {
		idx = sh.pendFree - 1
		sh.pendFree = sh.pend[idx].next
	} else {
		sh.pend = append(sh.pend, pendingMsg{})
		idx = int32(len(sh.pend)) - 1
	}
	p := &sh.pend[idx]
	p.mb = mb
	p.m = m
	return uint64(idx)
}

// HandleEvent implements sim.EventHandler: the network's delivery event for
// a staged message fired. The envelope is recycled before the mailbox
// delivery runs (delivery may wake a process whose next send reuses it).
func (sh *shard) HandleEvent(token uint64) {
	p := &sh.pend[token]
	mb, m := p.mb, p.m
	p.mb = nil
	p.m = Msg{}
	p.next = sh.pendFree
	sh.pendFree = int32(token) + 1
	sh.k.NoteProgress() // a message reaching a mailbox is application progress
	mb.deliver(m)
}

// deferredOp is one queued output of a busy rank: a send, or (dst ==
// opCompute) a computation whose duration rides in bytes.
type deferredOp struct {
	data  any
	bytes int64
	tag   Tag
	dst   int32
	next  int32 // slab index + 1 of the rank's next op; 0 terminates
}

const opCompute = -1

// opChunk is the unit the op slabs grow by. One size for every shard of
// every run means a finished run's chunks fit whatever runs next, so across
// a sweep the queues cost a few chunks per concurrent cell, not a slab per
// cell (a per-rank slice cost 2-4 % of a sweep's allocation in the
// prototype).
type opChunk [opChunkLen]deferredOp

const opChunkLen = 64

// opChunks hands finished runs' chunks to later ones. It is a locked free
// list rather than a sync.Pool because the sweeps that need it most
// allocate fast enough to collect garbage every few milliseconds, and a
// sync.Pool is emptied by two collections; the list keeps at most
// maxFreeChunks (2.5 MB) and is touched only when a slab grows or a run
// ends.
var opChunks struct {
	sync.Mutex
	free []*opChunk
}

const maxFreeChunks = 1024

// op returns the slab slot behind a queue reference (index + 1).
func (sh *shard) op(ref int32) *deferredOp {
	return &sh.ops[(ref-1)/opChunkLen][(ref-1)%opChunkLen]
}

// growOps adds one chunk to the shard's slab.
func (sh *shard) growOps() {
	var c *opChunk
	opChunks.Lock()
	if n := len(opChunks.free); n > 0 {
		c, opChunks.free = opChunks.free[n-1], opChunks.free[:n-1]
	}
	opChunks.Unlock()
	if c == nil {
		c = new(opChunk)
	}
	sh.ops = append(sh.ops, c)
}

// releaseOps returns the slab's chunks to the free list, zeroed: a failed
// run may have left payloads queued, and freed slots still hold their links.
func (sh *shard) releaseOps() {
	for _, c := range sh.ops {
		*c = opChunk{}
	}
	opChunks.Lock()
	keep := min(len(sh.ops), maxFreeChunks-len(opChunks.free))
	opChunks.free = append(opChunks.free, sh.ops[:keep]...)
	opChunks.Unlock()
	sh.ops = nil
}

// enqueue appends an output to the rank's queue; its continuation will run
// it when the outputs ahead of it have completed.
func (e *Env) enqueue(op deferredOp) {
	sh := e.sh
	var ref int32
	if sh.opsFree != 0 {
		ref = sh.opsFree
		sh.opsFree = sh.op(ref).next
	} else {
		if int(sh.opsUsed) == len(sh.ops)*opChunkLen {
			sh.growOps()
		}
		sh.opsUsed++
		ref = sh.opsUsed
	}
	op.next = 0
	*sh.op(ref) = op
	if e.qtail == 0 {
		e.qhead = ref
	} else {
		sh.op(e.qtail).next = ref
	}
	e.qtail = ref
}

// dequeue removes and returns the rank's oldest queued output.
func (e *Env) dequeue() deferredOp {
	sh := e.sh
	ref := e.qhead
	slot := sh.op(ref)
	op := *slot
	if e.qhead = op.next; e.qhead == 0 {
		e.qtail = 0
	}
	*slot = deferredOp{next: sh.opsFree} // drops the payload reference
	sh.opsFree = ref
	return op
}

// RouteWAN implements network.Router: an outgoing wide-area message has
// cleared the source-side legs and is buffered until the window barrier.
func (sh *shard) RouteWAN(a network.WANArrival) {
	sh.out = append(sh.out, a)
}

// Flush implements sim.CrossExchange: with every LP quiescent at a window
// barrier, replay the buffered wide-area arrivals into their destination
// shards in the order the sequential kernel would have made the send calls,
// because that is the order it books destination gateways in. Windows
// partition virtual time, so across distinct send times the order is just
// ascending Sent. Exact-time ties fire in the sequential kernel in global
// schedule order, which the send events' birth chains reconstruct: seqs
// are assigned in schedule order, schedule order is execution order of the
// scheduling (parent) events, and recursing that argument makes equal-time
// order exactly the lexicographic order of the events' ancestor birth
// times — which the chains record birthDepth levels deep. Gateway FIFO
// booking makes these ties observable (a later reserve call with an
// earlier ready time starts behind the earlier call's backlog), so getting
// them right is load-bearing, and synchronous cascades can stay tied many
// levels back: the Awari lattice ties 15 deep before reaching the
// wide-area arrivals that launched the cascades. Ties beyond birthDepth
// fall to the stable merge: per-outbox order within an LP (the LP is the
// sequential projection, so that is already sequential relative order) and
// ascending LP across clusters, which matches the fully-symmetric case
// where chains agree all the way back to spawn (processes are spawned in
// rank order).
func (rt *runtime) Flush(sim.Time) int {
	rt.merge = rt.merge[:0]
	for _, sh := range rt.shards {
		rt.merge = append(rt.merge, sh.out...)
		clear(sh.out)
		sh.out = sh.out[:0]
	}
	if len(rt.merge) == 0 {
		return 0
	}
	slices.SortStableFunc(rt.merge, func(a, b network.WANArrival) int {
		if a.Sent != b.Sent {
			if a.Sent < b.Sent {
				return -1
			}
			return 1
		}
		return a.Chain.Compare(b.Chain)
	})
	for i := range rt.merge {
		a := &rt.merge[i]
		// On multi-hop graphs the wide-area hops were deferred (links are
		// shared across source clusters); book them now, in this sorted
		// order — the sequential engine's global send order — on shard 0's
		// network, the designated owner of all wide-area link state. Pure
		// state mutation, no kernel interaction, so no replay bracketing.
		if a.NeedsTransit {
			rt.shards[0].net.TransitWAN(a)
			if a.Undelivered {
				continue // lost in flight: first hop booked, nothing arrives
			}
		}
		// Replay each arrival as of its send: the delivery event must carry
		// the same birth chain it gets on a single global kernel —
		// everything the woken receiver schedules inherits it, and the next
		// window's flush sorts on it.
		dsh := rt.shards[a.DstCluster]
		dsh.k.BeginReplay(a.Sent, a.Chain)
		dsh.net.DeliverWAN(*a)
		dsh.k.EndReplay()
	}
	n := len(rt.merge)
	clear(rt.merge) // release the delivery closures for GC
	rt.merge = rt.merge[:0]
	return n
}

// mailboxDump renders this shard's backed-up mailboxes for abnormal-
// termination diagnostics: which ranks hold undelivered messages, and how
// many.
func (sh *shard) mailboxDump() []string {
	const maxLines = 32
	var out []string
	backed := 0
	for _, r := range sh.ranks {
		if n := sh.rt.envs[r].mb.pending(); n > 0 {
			backed++
			if len(out) < maxLines {
				out = append(out, fmt.Sprintf("rank %d: %d undelivered message(s)", r, n))
			}
		}
	}
	if backed > maxLines {
		out = append(out, fmt.Sprintf("... %d more ranks with queued messages", backed-maxLines))
	}
	if backed == 0 {
		out = append(out, "all mailboxes empty")
	}
	return out
}

// reliableDump renders the shard's go-back-N state for abnormal-termination
// diagnostics: protocol counters, then every local channel with unacked
// frames or retries in progress.
func (sh *shard) reliableDump() []string {
	const maxLines = 32
	out := []string{fmt.Sprintf(
		"stats: timeouts=%d retransmits=%d acks=%d duplicates=%d out-of-order=%d",
		sh.relStats.Timeouts, sh.relStats.Retransmits, sh.relStats.Acks,
		sh.relStats.Duplicates, sh.relStats.OutOfOrder)}
	busy := 0
	for _, r := range sh.ranks {
		e := sh.rt.envs[r]
		for _, s := range e.relS {
			if s == nil || (len(s.window) == 0 && s.retries == 0 && !s.failed) {
				continue
			}
			busy++
			if len(out) < maxLines+1 {
				state := ""
				if s.failed {
					state = " FAILED"
				}
				out = append(out, fmt.Sprintf(
					"channel %d->%d: window %d/%d unacked from seq %d, next %d, retries %d%s",
					s.e.rank, s.dst, len(s.window), sh.rt.rel.Window, s.base, s.next, s.retries, state))
			}
		}
	}
	if busy > maxLines {
		out = append(out, fmt.Sprintf("... %d more channels with unacked frames", busy-maxLines))
	}
	return out
}

// addTransportStats accumulates one shard's transport counters into the
// run's total.
func addTransportStats(dst *trace.TransportStats, s trace.TransportStats) {
	dst.Timeouts += s.Timeouts
	dst.Retransmits += s.Retransmits
	dst.Acks += s.Acks
	dst.Duplicates += s.Duplicates
	dst.OutOfOrder += s.OutOfOrder
}

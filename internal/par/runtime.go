package par

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
)

// runtime is one run: the kernel, the network, the per-rank environments,
// and the pools every rank's sends and deferred outputs draw on.
type runtime struct {
	topo   *topology.Topology
	envs   []*Env
	k      *sim.Kernel
	net    *network.Network
	tracer trace.Sink
	rec    trace.OpSink // op-level recorder when Options.Trace implements it
	recSeq int64        // global send counter feeding Msg.seq stamps
	rel    *relConfig   // nil unless the reliable transport is active

	regime   *regime.Plan // nil unless a dynamic regime is active
	adaptive bool         // Options.Adaptive; the table pairs it with a regime
	lossy    bool         // frames can actually be lost (faults or churn)

	// pend pools the envelopes of every message in flight: a send stages
	// its envelope here and hands the network only the runtime (a
	// sim.EventHandler) plus the slot token, so sends allocate nothing.
	// Slots are recycled through a free list linked through envelope.seq
	// (index+1 encoding; 0 = none).
	pend     []envelope
	pendFree int32
	pendLive int // slots off the free list; zero once a run has drained

	// ops is the slab behind every rank's queue of deferred outputs
	// (Env.qhead/qtail), free-listed like pend: it grows to the most
	// outputs the ranks had queued at once, and opsFree heads the recycled
	// slots (index+1; 0 = none).
	ops     []deferredOp
	opsFree int32

	// relStats and relErrs are the reliable-transport counters and channel
	// failures, copied into the run's Result.
	relStats trace.TransportStats
	relErrs  []error
	timers   TimerStats
}

// TimerStats counts the reliable transport's retransmission timers: how
// many were armed, and how many fired with nothing to do — re-armed or
// cancelled since, or their window acked meanwhile. Like sim.QueueStats the
// counts are exact and machine-independent.
type TimerStats struct {
	Armed, Idle uint64
}

// timerTotals sums TimerStats over every run finished in this process.
var timerTotals struct {
	sync.Mutex
	TimerStats
}

// TimerTotals returns TimerStats summed over every run that has finished
// in this process.
func TimerTotals() TimerStats {
	timerTotals.Lock()
	defer timerTotals.Unlock()
	return timerTotals.TimerStats
}

// rankNames caches the diagnostic process names ("rank0", "rank1", ...)
// shared by every run in a sweep, keeping string formatting out of the
// per-run spawn loop. Guarded by its own lock because sweeps run many
// simulations concurrently.
var rankNames struct {
	sync.RWMutex
	names []string
}

func rankName(r int) string {
	rankNames.RLock()
	if r < len(rankNames.names) {
		n := rankNames.names[r]
		rankNames.RUnlock()
		return n
	}
	rankNames.RUnlock()
	rankNames.Lock()
	defer rankNames.Unlock()
	for i := len(rankNames.names); i <= r; i++ {
		rankNames.names = append(rankNames.names, "rank"+strconv.Itoa(i))
	}
	return rankNames.names[r]
}

// Result summarizes a completed run.
type Result struct {
	// Elapsed is the virtual time at which the last processor finished.
	Elapsed sim.Time
	// WAN is the total wide-area traffic.
	WAN network.LinkStats
	// ClusterWANOut is per-cluster outgoing wide-area traffic (Figure 1).
	ClusterWANOut []network.LinkStats
	// Intra is total fast-network traffic.
	Intra network.IntraStats
	// Events is the number of simulator events fired, a measure of
	// simulation effort.
	Events uint64
	// Transport counts reliable-channel protocol activity: timeouts,
	// retransmissions, acks. Zero when fault injection is off.
	Transport trace.TransportStats
	// Faults counts the wide-area faults the network injected. Zero when
	// fault injection is off.
	Faults network.FaultStats
}

// Speedup returns sequentialTime / Elapsed.
func (r Result) Speedup(sequential sim.Time) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(sequential) / float64(r.Elapsed)
}

// Run executes job on every processor of topo over a network with the given
// parameters. It returns when all processors have finished. A deadlock in
// the simulated program is returned as an error. The seed is ignored: no
// run draws random numbers (applications seed their inputs from their own
// Config). It stays in the signature until the benchmark harness, which
// calls Run, can be changed. For traced, faulted or regime runs, see
// RunWith.
func Run(topo *topology.Topology, params network.Params, seed int64, job Job) (Result, error) {
	return RunWithContext(nil, topo, Options{Params: params}, job)
}

// msgKind maps the network's message class to the trace vocabulary (trace
// cannot import network, so the mirror enums are bridged here).
func msgKind(c network.MsgClass) trace.MsgKind {
	switch c {
	case network.ClassRetrans:
		return trace.KindRetrans
	case network.ClassAck:
		return trace.KindAck
	}
	return trace.KindData
}

func runSim(ctx context.Context, topo *topology.Topology, opts Options, job Job) (Result, error) {
	if err := opts.Faults.Validate(); err != nil {
		return Result{}, fmt.Errorf("par: invalid fault parameters: %w", err)
	}
	if err := opts.Regime.Validate(); err != nil {
		return Result{}, fmt.Errorf("par: invalid regime parameters: %w", err)
	}
	// The capability table decides every feature combination: a refusal
	// comes back before any kernel is built.
	if err := Check(FeaturesOf(opts)); err != nil {
		return Result{}, err
	}
	// Bind the regime once against the run's wide-area graph. NewPlan's
	// default clique is built with the same deterministic constructor the
	// network uses, so edge IDs agree.
	var rplan *regime.Plan
	if opts.Regime.Enabled() {
		var err error
		rplan, err = regime.NewPlan(opts.Regime, opts.WAN, topo.Clusters())
		if err != nil {
			return Result{}, fmt.Errorf("par: invalid regime parameters: %w", err)
		}
	}
	slabs := unparkSlabs()
	k := sim.NewKernelWith(slabs.queue)
	net := network.NewWithWAN(k, topo, opts.Params, opts.WAN)
	rt := &runtime{topo: topo, k: k, net: net, tracer: opts.Trace,
		regime: rplan, adaptive: opts.Adaptive,
		lossy: opts.Faults.Enabled() || (rplan != nil && rplan.HasChurn()),
		pend:  slabs.pend[:0], ops: slabs.ops[:0]}
	rt.rec, _ = opts.Trace.(trace.OpSink)
	if opts.Faults.Enabled() || opts.Transport.Enabled || (rplan != nil && rplan.NeedsTransport()) {
		rt.rel = &relConfig{
			Transport: opts.Transport.withDefaults(),
			rtoBase:   rtoBase(opts.Params),
		}
	}
	if opts.Trace != nil {
		tr := opts.Trace
		net.SetObserver(func(ev network.MessageEvent) {
			tr.RecordMessage(trace.Message{
				Src: ev.Src, Dst: ev.Dst, Bytes: ev.Bytes,
				Sent: ev.Sent, Delivered: ev.Delivered, WAN: ev.WAN,
				Kind: msgKind(ev.Class), Dup: ev.Duplicate, Dropped: ev.Dropped,
			})
		})
	}
	if opts.Faults.Enabled() {
		net.SetFaults(faults.NewPlan(opts.Faults))
	}
	net.SetRegime(rplan)
	rt.envs = make([]*Env, topo.Procs())
	procs := make([]*sim.Proc, topo.Procs())
	for r := 0; r < topo.Procs(); r++ {
		e := &Env{rt: rt, rank: r}
		if r < len(slabs.nodes) {
			e.mb.nodes = slabs.nodes[r][:0]
		}
		e.keep = func(m Msg) { e.got = m }
		rt.envs[r] = e
		procs[r] = k.Spawn(rankName(r), func(p *sim.Proc) {
			e.p = p
			job(e)
			e.sync() // the rank finishes when its last output has
		})
	}
	// Subsystem diagnostics are rendered into the RunError of any abnormal
	// termination (deadlock, budget kill, watchdog trip, deadline); a
	// healthy run never invokes them.
	k.AddDiagnostic("mailboxes", rt.mailboxDump)
	if rt.rel != nil {
		k.AddDiagnostic("reliable-transport", rt.reliableDump)
	}
	k.SetBudget(opts.Budget)
	err := k.RunContext(ctx)
	rt.park(slabs)
	if rt.rel != nil {
		timerTotals.Lock()
		timerTotals.Armed += rt.timers.Armed
		timerTotals.Idle += rt.timers.Idle
		timerTotals.Unlock()
	}
	res := Result{Transport: rt.relStats}
	if rt.rel != nil {
		if opts.Trace != nil {
			opts.Trace.RecordTransport(res.Transport)
		}
		if len(rt.relErrs) > 0 {
			// A failed reliable channel usually also deadlocks the program;
			// surface the root cause ahead of the secondary deadlock.
			err = errors.Join(append(rt.relErrs, err)...)
		}
	}
	if rt.pendLive != 0 && err == nil {
		// A drained run has delivered or dropped every message.
		err = fmt.Errorf("par: run ended with %d message envelope(s) unaccounted for", rt.pendLive)
	}
	res.Faults = net.FaultStats()
	if err != nil {
		return res, err
	}
	for _, p := range procs {
		res.Elapsed = max(res.Elapsed, p.FinishedAt())
	}
	res.WAN = net.TotalWAN()
	res.Intra = net.Intra()
	res.Events = k.EventsFired()
	res.ClusterWANOut = make([]network.LinkStats, topo.Clusters())
	for c := range res.ClusterWANOut {
		res.ClusterWANOut[c] = net.ClusterWANOut(c)
	}
	return res, nil
}

// Barrier tags use a reserved negative odd range so they never collide with
// application tags or RPC reply tags (negative even).
const (
	barrierUpTag   Tag = -1001
	barrierDownTag Tag = -1003
)

// BinomialLowbit is the span of virtual rank r in a binomial tree of n
// ranks rooted at 0: r's lowest set bit, or for the root the least power of
// two covering n, so the root fans out to every subtree. r's parent is
// r-BinomialLowbit(r, n) and its children are r+m for every power of two m
// below it with r+m < n. Every binomial tree in the module (barriers,
// broadcasts, reductions) walks from this one function.
func BinomialLowbit(r, n int) int {
	if r == 0 {
		top := 1
		for top < n {
			top <<= 1
		}
		return top
	}
	return r & -r
}

// Barrier synchronizes all processors with a flat binomial tree rooted at
// rank 0, ignoring cluster structure — the "uniform network" barrier the
// original applications were written with. Cluster-aware synchronization
// lives in package collective.
//
// In the binomial tree rooted at 0, parent(r) = r - lowbit(r) and the
// children of r are r+m for every power of two m below lowbit(r) with
// r+m < n.
func (e *Env) Barrier() {
	n := e.Size()
	r := e.rank
	lowbit := BinomialLowbit(r, n)
	// Gather phase: receive from children (smallest subtree first, matching
	// the order they become ready), then report to the parent.
	for mask := 1; mask < lowbit && r+mask < n; mask <<= 1 {
		e.RecvFrom(r+mask, barrierUpTag)
	}
	if r != 0 {
		e.Send(r-lowbit, barrierUpTag, nil, 16)
	}
	// Release phase: receive from parent, then fan out to children from the
	// largest subtree down so deep subtrees start early.
	if r != 0 {
		e.RecvFrom(r-lowbit, barrierDownTag)
	}
	for mask := lowbit >> 1; mask >= 1; mask >>= 1 {
		if r+mask < n {
			e.Send(r+mask, barrierDownTag, nil, 16)
		}
	}
}

// envelope is one pooled message in flight: what its delivery does, for
// which rank, with what, and how many of its scheduled copies (2 for a
// duplicated message) are still to fire.
type envelope struct {
	m      Msg
	seq    int64 // envFrame: sequence number; envAck: cumulative ack; free: next free slot
	dst    int32 // receiving rank
	kind   envKind
	copies int8
}

type envKind uint8

const (
	envData  envKind = iota // m goes to dst's mailbox
	envFrame                // reliable frame seq from m.From, to dst's reliable layer
	envAck                  // cumulative ack seq from m.From, to dst's reliable sender
)

// send stages ev in the pool and books it on the network as a message of
// bytes from rank src to ev.dst. The network calls HandleEvent with the slot
// token once per delivered copy; a dropped message frees the slot at once.
func (rt *runtime) send(src int, bytes int64, class network.MsgClass, ev envelope) {
	tok := rt.put(ev)
	switch rt.net.SendHandle(src, int(ev.dst), bytes, class, rt, tok) {
	case 0: // dropped: nothing will fire
		rt.take(tok)
	case 2: // duplicated: both copies carry the token
		rt.pend[tok].copies = 2
	}
}

// put places ev in a free slot, due for one delivery, and returns its token.
func (rt *runtime) put(ev envelope) uint64 {
	idx := rt.pendFree - 1
	if idx >= 0 {
		rt.pendFree = int32(rt.pend[idx].seq)
	} else {
		idx = int32(len(rt.pend))
		rt.pend = append(rt.pend, envelope{})
	}
	ev.copies = 1
	rt.pend[idx] = ev
	rt.pendLive++
	return uint64(idx)
}

// take returns the envelope behind token for one of its scheduled copies,
// freeing the slot with the last.
func (rt *runtime) take(token uint64) envelope {
	p := &rt.pend[token]
	ev := *p
	if p.copies--; p.copies == 0 {
		*p = envelope{seq: int64(rt.pendFree)} // drops the payload reference
		rt.pendFree = int32(token) + 1
		rt.pendLive--
	}
	return ev
}

// HandleEvent implements sim.EventHandler: the network's delivery event for
// a pooled envelope fired. The envelope is taken out of the pool before the
// delivery runs (delivery may wake a process whose next send reuses the
// slot).
func (rt *runtime) HandleEvent(token uint64) {
	ev := rt.take(token)
	e := rt.envs[ev.dst]
	switch ev.kind {
	case envData:
		rt.k.NoteProgress() // a message reaching a mailbox is application progress
		e.mb.deliver(ev.m)
	case envFrame:
		e.relDeliver(ev.m.From, ev.seq, ev.m)
	case envAck:
		e.relAck(ev.m.From, ev.seq)
	}
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

// op returns the slab slot behind a queue reference (index + 1).
func (rt *runtime) op(ref int32) *deferredOp { return &rt.ops[ref-1] }

// enqueue appends an output to the rank's queue; its continuation will run
// it when the outputs ahead of it have completed.
func (e *Env) enqueue(op deferredOp) {
	rt := e.rt
	op.next = 0
	var ref int32
	if rt.opsFree != 0 {
		ref = rt.opsFree
		rt.opsFree = rt.op(ref).next
		*rt.op(ref) = op
	} else {
		rt.ops = append(rt.ops, op)
		ref = int32(len(rt.ops))
	}
	if e.qtail == 0 {
		e.qhead = ref
	} else {
		rt.op(e.qtail).next = ref
	}
	e.qtail = ref
}

// dequeue removes and returns the rank's oldest queued output.
func (e *Env) dequeue() deferredOp {
	rt := e.rt
	ref := e.qhead
	slot := rt.op(ref)
	op := *slot
	if e.qhead = op.next; e.qhead == 0 {
		e.qtail = 0
	}
	*slot = deferredOp{next: rt.opsFree} // drops the payload reference
	rt.opsFree = ref
	return op
}

// mailboxDump renders the run's backed-up mailboxes for abnormal-
// termination diagnostics: which ranks hold undelivered messages, and how
// many.
func (rt *runtime) mailboxDump() []string {
	const maxLines = 32
	var out []string
	backed := 0
	for r, e := range rt.envs {
		if n := e.mb.pending(); n > 0 {
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

// reliableDump renders the run's go-back-N state for abnormal-termination
// diagnostics: protocol counters, then every channel with unacked
// frames or retries in progress.
func (rt *runtime) reliableDump() []string {
	const maxLines = 32
	out := []string{fmt.Sprintf(
		"stats: timeouts=%d retransmits=%d acks=%d duplicates=%d out-of-order=%d",
		rt.relStats.Timeouts, rt.relStats.Retransmits, rt.relStats.Acks,
		rt.relStats.Duplicates, rt.relStats.OutOfOrder)}
	busy := 0
	for _, e := range rt.envs {
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
					s.e.rank, s.dst, len(s.window), rt.rel.Window, s.base, s.next, s.retries, state))
			}
		}
	}
	if busy > maxLines {
		out = append(out, fmt.Sprintf("... %d more channels with unacked frames", busy-maxLines))
	}
	return out
}

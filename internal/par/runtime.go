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

// runtime ties the per-LP shards (kernel, network, LP-local pools) and the
// per-rank environments together. Sequential runs have exactly one shard
// hosting every rank; PDES runs (Options.Workers >= 1) have one shard per
// cluster, driven by sim.RunWindows.
type runtime struct {
	topo   *topology.Topology
	envs   []*Env
	tracer trace.Sink
	rec    trace.OpSink // op-level recorder when Options.Trace implements it
	recSeq int64        // global send counter feeding Msg.seq stamps
	seed   int64
	rel    *relConfig // nil unless the reliable transport is active

	regime   *regime.Plan // nil unless a dynamic regime is active
	adaptive bool         // Options.Adaptive; the table pairs it with a regime
	lossy    bool         // frames can actually be lost (faults or churn)

	shards []*shard
	pdes   bool // cluster-partitioned parallel mode

	merge []network.WANArrival // barrier scratch: sorted union of shard outboxes
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
	// PerProcFinish holds each rank's finish time.
	PerProcFinish []sim.Time
	// PerProcCompute holds each rank's accumulated compute time, for
	// utilization and load-balance analysis.
	PerProcCompute []sim.Time
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
// parameters and seed for the per-rank random streams. It returns when all
// processors have finished. A deadlock in the simulated program is returned
// as an error. For traced, faulted or regime runs, see RunWith.
func Run(topo *topology.Topology, params network.Params, seed int64, job Job) (Result, error) {
	return RunWithContext(nil, topo, Options{Params: params, Seed: seed}, job)
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
	// comes back before any kernel is built, and it picks the engine.
	pdes, err := decide(FeaturesOf(topo, opts))
	if err != nil {
		return Result{}, err
	}
	// Bind the regime once against the run's wide-area graph; the plan is
	// immutable and every query a pure function of virtual time, so all
	// shards of a parallel run can share the one instance. NewPlan's default
	// clique is built with the same deterministic constructor the network
	// uses, so edge IDs agree.
	var rplan *regime.Plan
	if opts.Regime.Enabled() {
		rplan, err = regime.NewPlan(opts.Regime, opts.WAN, topo.Clusters())
		if err != nil {
			return Result{}, fmt.Errorf("par: invalid regime parameters: %w", err)
		}
	}
	rt := &runtime{topo: topo, tracer: opts.Trace, seed: opts.Seed,
		regime: rplan, adaptive: opts.Adaptive, pdes: pdes,
		lossy: opts.Faults.Enabled() || (rplan != nil && rplan.HasChurn())}
	rt.rec, _ = opts.Trace.(trace.OpSink)
	if opts.Faults.Enabled() || opts.Transport.Enabled || (rplan != nil && rplan.NeedsTransport()) {
		rt.rel = &relConfig{
			Transport: opts.Transport.withDefaults(),
			rtoBase:   rtoBase(opts.Params),
		}
	}
	lookahead := opts.Params.WANLookaheadFor(opts.WAN)
	if rt.pdes {
		rt.shards = make([]*shard, topo.Clusters())
		for c := range rt.shards {
			k := sim.NewKernel()
			// LP kernels track event birth chains: the window flush sorts
			// cross-cluster arrivals by them to reproduce the sequential
			// kernel's exact-time tie order. Sequential kernels skip the
			// tracking (and its per-event copies) entirely.
			k.RecordChains()
			net := network.NewWithWAN(k, topo, opts.Params, opts.WAN)
			sh := &shard{rt: rt, id: c, k: k, net: net, ranks: topo.RanksIn(c)}
			net.SetRouter(sh)
			if opts.Faults.Enabled() {
				// Per-shard plans make identical decisions: a plan is a pure
				// function of (seed, link, message index, time).
				net.SetFaults(faults.NewPlan(opts.Faults))
			}
			// The regime plan is immutable; all shards share the one binding.
			net.SetRegime(rplan)
			rt.shards[c] = sh
		}
	} else {
		k := sim.NewKernel()
		net := network.NewWithWAN(k, topo, opts.Params, opts.WAN)
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
		allRanks := make([]int, topo.Procs())
		for r := range allRanks {
			allRanks[r] = r
		}
		rt.shards = []*shard{{rt: rt, k: k, net: net, ranks: allRanks}}
	}
	defer func() {
		for _, sh := range rt.shards {
			sh.releaseOps()
		}
	}()
	rt.envs = make([]*Env, topo.Procs())
	procs := make([]*sim.Proc, topo.Procs())
	for r := 0; r < topo.Procs(); r++ {
		sh := rt.shards[0]
		if rt.pdes {
			sh = rt.shards[topo.ClusterOf(r)]
		}
		e := &Env{rt: rt, sh: sh, rank: r}
		e.keep = func(m Msg) { e.got = m }
		rt.envs[r] = e
		procs[r] = sh.k.Spawn(rankName(r), func(p *sim.Proc) {
			e.p = p
			job(e)
			e.sync() // the rank finishes when its last output has
		})
	}
	// Subsystem diagnostics are rendered into the RunError of any abnormal
	// termination (deadlock, budget kill, watchdog trip, deadline); a
	// healthy run never invokes them.
	for _, sh := range rt.shards {
		sh.k.AddDiagnostic("mailboxes", sh.mailboxDump)
		if rt.rel != nil {
			sh.k.AddDiagnostic("reliable-transport", sh.reliableDump)
		}
	}
	if rt.pdes {
		kernels := make([]*sim.Kernel, len(rt.shards))
		for i, sh := range rt.shards {
			kernels[i] = sh.k
		}
		err = sim.RunWindows(kernels, rt, sim.WindowConfig{
			Lookahead: lookahead,
			Workers:   opts.Workers,
			Budget:    opts.Budget,
			Ctx:       ctx,
		})
	} else {
		rt.shards[0].k.SetBudget(opts.Budget)
		err = rt.shards[0].k.RunContext(ctx)
	}
	var res Result
	if rt.rel != nil {
		var errs []error
		for _, sh := range rt.shards {
			addTransportStats(&res.Transport, sh.relStats)
			errs = append(errs, sh.relErrs...)
		}
		if opts.Trace != nil {
			opts.Trace.RecordTransport(res.Transport)
		}
		if len(errs) > 0 {
			// A failed reliable channel usually also deadlocks the program;
			// surface the root cause ahead of the secondary deadlock.
			err = errors.Join(append(errs, err)...)
		}
	}
	for _, sh := range rt.shards {
		if sh.pendLive != 0 && err == nil {
			// A drained run has delivered or dropped every message.
			err = fmt.Errorf("par: LP %d ended with %d message envelope(s) unaccounted for", sh.id, sh.pendLive)
		}
		fs := sh.net.FaultStats()
		res.Faults.Dropped += fs.Dropped
		res.Faults.OutageDropped += fs.OutageDropped
		res.Faults.Duplicated += fs.Duplicated
	}
	if err != nil {
		return res, err
	}
	res.PerProcFinish = make([]sim.Time, len(procs))
	res.PerProcCompute = make([]sim.Time, len(procs))
	for i, p := range procs {
		res.PerProcFinish[i] = p.FinishedAt()
		res.PerProcCompute[i] = p.ComputeTime()
		if p.FinishedAt() > res.Elapsed {
			res.Elapsed = p.FinishedAt()
		}
	}
	res.ClusterWANOut = make([]network.LinkStats, topo.Clusters())
	for _, sh := range rt.shards {
		w := sh.net.TotalWAN()
		res.WAN.Messages += w.Messages
		res.WAN.Bytes += w.Bytes
		res.WAN.BusyTime += w.BusyTime
		is := sh.net.Intra()
		res.Intra.Messages += is.Messages
		res.Intra.Bytes += is.Bytes
		res.Events += sh.k.EventsFired()
		for c := 0; c < topo.Clusters(); c++ {
			s := sh.net.ClusterWANOut(c)
			res.ClusterWANOut[c].Messages += s.Messages
			res.ClusterWANOut[c].Bytes += s.Bytes
			res.ClusterWANOut[c].BusyTime += s.BusyTime
		}
	}
	return res, nil
}

// Barrier tags use a reserved negative odd range so they never collide with
// application tags or RPC reply tags (negative even).
const (
	barrierUpTag   Tag = -1001
	barrierDownTag Tag = -1003
)

// binomialLowbit returns rank r's lowest set bit, or a value above n for
// the root, so that the binomial-tree helpers treat rank 0 as the top.
func binomialLowbit(r, n int) int {
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
	lowbit := binomialLowbit(r, n)
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

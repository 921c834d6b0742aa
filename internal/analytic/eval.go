package analytic

import (
	"twolayer/internal/network"
	"twolayer/internal/sim"
)

// Eval replays a recorded Graph under candidate network parameters and
// returns the predicted completion time. The replay walks the whole
// operation stream once per point, from op 0 — the stream is already a
// topological order — carrying the same
// state the simulator's network keeps: each rank's clock, and the freeAt
// horizon of every FIFO link (per-rank NICs, directed cluster-pair
// wide-area pipes, per-cluster gateways). Edge costs are re-derived from
// the candidate parameters with the simulator's exact formulas, so solving
// at the recorded reference point reproduces the recorded elapsed time bit
// for bit. Away from the reference the frozen behaviour (message set,
// matchings, link booking order) is an approximation — conservative for
// contention, since the recorded FIFO chains serialize messages even where
// a slower network would have spread them out.
//
// Concurrency contract: an Eval carries reusable state and must only be
// used from one goroutine at a time — no method, including Solve,
// SolveMatched, SolveBatch and Clone, is safe to call concurrently with a
// solve on the same Eval. The one relaxation is Clone on an evaluator
// nobody solves on: it only reads, so a pool may keep one prepared Eval
// idle and hand out clones of it from any goroutine under the pool's lock.
// For concurrent grid solving, create one evaluator per goroutine: either
// independently with NewEval (the graph itself is read-only and shared),
// or with Clone, which also shares the prepared replay streams and batch
// program. No method starts goroutines of its own; the caller decides what
// runs in parallel.
type Eval struct {
	g *Graph

	rankEnd   []sim.Time // per-rank clock
	nicFree   []sim.Time // per-rank outgoing NIC horizon
	gwFree    []sim.Time // per-cluster gateway horizon
	wanFree   []sim.Time // directed cluster-pair wide-area horizons, src*C+dst
	delivered []sim.Time // per-message delivery time

	// Matched-replay state (SolveMatched), built on first use. rankOps
	// holds each rank's operation indices in record order; opPat maps each
	// OpRecv to its pattern ordinal (-1 elsewhere); both are read-only and
	// shared by clones. The m* arrays, pending sets, consumed flags and the
	// wake queue are per-solve scratch. The queue is a winner tree over the
	// ranks (at most one live wakeup per rank, keyed (time, op index), the
	// root holding the minimum); see the queue comment in eval_matched.go.
	rankOps  [][]int32
	opPat    []int32
	mPos     []int32
	mAtRecv  []bool
	mAwait   []int64
	pending  [][]int32
	consumed []bool
	wq       wakeTree
	mNarrow  bool // current pass narrows tag-wildcard receives
	// mLanTx caches the LAN transmission time per message at bandwidth
	// mLanBW (matchedLanTx); per-evaluator scratch.
	mLanTx []sim.Time
	mLanBW float64

	// Batched-solve state (SolveBatch), allocated on first use and reused
	// across chunks; see batch.go.
	batch *batchState
	// prog is the graph pre-compiled for the batched walk (buildProg):
	// static op classification and delivery slots, with spans and receive
	// runs fused. Built by the first batched solve (ensureProg), read-only,
	// shared by clones taken after it: an evaluator that only answers
	// single points or matched replays never pays for it.
	prog *batchProg

	// Counters for benchmarking and reports.
	matchedSolves, matchedNarrowed, matchedFallbacks,
	matchedConflicts int
	batchSolves, batchPoints int
	opsEvaluated             int64
}

// NewEval prepares an evaluator for g. The graph must be valid (see
// Graph.Validate); recorder-built graphs always are.
func NewEval(g *Graph) *Eval {
	return &Eval{
		g:         g,
		rankEnd:   make([]sim.Time, g.Procs),
		nicFree:   make([]sim.Time, g.Procs),
		gwFree:    make([]sim.Time, g.Clusters),
		wanFree:   make([]sim.Time, g.Clusters*g.Clusters),
		delivered: make([]sim.Time, len(g.MsgSrc)),
	}
}

// Solve predicts the completion time under p: one walk of the whole
// operation stream from cleared state.
func (e *Eval) Solve(p network.Params) sim.Time {
	clear(e.rankEnd)
	clear(e.nicFree)
	clear(e.gwFree)
	clear(e.wanFree)
	// delivered needs no clearing: record order writes every message's
	// delivery before any receive reads it.
	g := e.g
	c := g.Clusters
	rttExtra := sim.Time(float64(2*p.WANLatency) * p.WANMessageRTTFactor)
	for i := range g.Ops {
		rank := g.Rank[i]
		switch g.Ops[i] {
		case OpSpan:
			e.rankEnd[rank] += sim.Time(g.Arg[i])
		case OpSend:
			m := g.Arg[i]
			size := g.MsgBytes[m]
			// The sender is occupied for the software overhead, and the
			// message enters the network at the same horizon (network.send's
			// ready and Env.Send's post-charge clock coincide).
			ready := e.rankEnd[rank] + p.SendOverhead
			e.rankEnd[rank] = ready
			dst := g.MsgDst[m]
			if dst == rank {
				// Loopback: software overheads only.
				e.delivered[m] = ready + p.RecvOverhead
				break
			}
			nicDone := reserve(&e.nicFree[rank], ready, size, p.IntraBandwidth, 0)
			localArrive := nicDone + p.IntraLatency
			if sc, dc := g.ClusterOf[rank], g.ClusterOf[dst]; sc != dc {
				wanDone := reserve(&e.wanFree[int(sc)*c+int(dc)],
					localArrive+p.WANPerMessage, size, p.WANBandwidth, rttExtra)
				gwDone := reserve(&e.gwFree[dc], wanDone+p.WANLatency, size, p.IntraBandwidth, 0)
				e.delivered[m] = gwDone + p.IntraLatency + p.RecvOverhead
			} else {
				e.delivered[m] = localArrive + p.RecvOverhead
			}
		case OpRecv:
			if d := e.delivered[g.Arg[i]]; d > e.rankEnd[rank] {
				e.rankEnd[rank] = d
			}
		}
	}
	e.opsEvaluated += int64(len(g.Ops))
	return e.maxRankEnd()
}

func (e *Eval) maxRankEnd() sim.Time {
	var elapsed sim.Time
	for _, t := range e.rankEnd {
		if t > elapsed {
			elapsed = t
		}
	}
	return elapsed
}

// reserve mirrors network.link.reserveWith: book size bytes onto the link
// no earlier than ready, holding it for the transmission plus extra, and
// return when the last byte leaves.
func reserve(freeAt *sim.Time, ready sim.Time, size int64, bandwidth float64, extra sim.Time) sim.Time {
	start := ready
	if *freeAt > start {
		start = *freeAt
	}
	end := start + sim.TransmissionTime(size, bandwidth) + extra
	*freeAt = end
	return end
}

// Stats reports how the evaluator has been exercised.
type Stats struct {
	// MatchedSolves counts completed SolveMatched replays;
	// MatchedNarrowed counts those that stalled and succeeded on the
	// narrowed second pass; MatchedFallbacks counts replays that stalled
	// on both passes and fell back to the frozen matching;
	// MatchedConflicts counts recorded poll messages a dynamic wildcard
	// match consumed first.
	MatchedSolves, MatchedNarrowed, MatchedFallbacks, MatchedConflicts int
	// BatchSolves counts batched chunk passes (SolveBatch walks the DAG
	// once per chunk of lanes); BatchPoints the parameter points answered
	// through them.
	BatchSolves, BatchPoints int
	// OpsEvaluated is the total operations replayed across all solves:
	// the whole graph per frozen point, scalar or batched, and the ops a
	// matched replay executed.
	OpsEvaluated int64
}

// Stats returns the evaluator's counters.
func (e *Eval) Stats() Stats {
	return Stats{
		MatchedSolves:    e.matchedSolves,
		MatchedNarrowed:  e.matchedNarrowed,
		MatchedFallbacks: e.matchedFallbacks,
		MatchedConflicts: e.matchedConflicts,
		BatchSolves:      e.batchSolves,
		BatchPoints:      e.batchPoints,
		OpsEvaluated:     e.opsEvaluated,
	}
}

// Sensitivity decomposes a predicted completion time into the shares
// attributable to wide-area latency and bandwidth, LLAMP-style: solve at
// p, then with the latency zeroed, then with infinite bandwidth. The
// differences are the critical-path time each resource costs the
// application at that point.
type Sensitivity struct {
	// Elapsed is the predicted completion time at the asked point.
	Elapsed sim.Time
	// LatencyCost is Elapsed minus the completion time with a zero-latency
	// WAN (bandwidth unchanged): the critical-path time bought back by an
	// infinitely short link.
	LatencyCost sim.Time
	// BandwidthCost is Elapsed minus the completion time with an
	// infinite-bandwidth WAN (latency unchanged).
	BandwidthCost sim.Time
}

// LatencyShare returns LatencyCost as a fraction of Elapsed.
func (s Sensitivity) LatencyShare() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.LatencyCost) / float64(s.Elapsed)
}

// BandwidthShare returns BandwidthCost as a fraction of Elapsed.
func (s Sensitivity) BandwidthShare() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.BandwidthCost) / float64(s.Elapsed)
}

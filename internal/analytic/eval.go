package analytic

import (
	"twolayer/internal/network"
	"twolayer/internal/sim"
)

// Eval replays a recorded Graph under candidate network parameters and
// returns the predicted completion time. The replay walks the operation
// stream once — it is already a topological order — carrying the same
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
// or with Clone, which also shares the prepared replay streams and the
// current prefix snapshot. SolveBatchParallel manages such clones
// internally.
type Eval struct {
	g *Graph

	rankEnd   []sim.Time // per-rank clock
	nicFree   []sim.Time // per-rank outgoing NIC horizon
	gwFree    []sim.Time // per-cluster gateway horizon
	wanFree   []sim.Time // directed cluster-pair wide-area horizons, src*C+dst
	delivered []sim.Time // per-message delivery time

	// Incremental mode: everything before the first wide-area send is
	// independent of the WAN parameters, so a snapshot of the replay state
	// there lets WAN-only sweeps skip the shared prefix. wanStart is the
	// operation index of the first wide-area send (len(Ops) if none);
	// prefixMsgs counts messages sent before it.
	wanStart   int
	prefixMsgs int
	snapValid  bool
	snapLan    lanParams
	snapState  []sim.Time // concatenated copies of the five arrays at wanStart

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
	// mSpecific (computed once, mSpecificSet guards) marks graphs with no
	// wildcard receives, where the frozen pass IS the matched answer.
	mSpecific, mSpecificSet bool

	// Batched-solve state (SolveBatch), allocated on first use and reused
	// across chunks; see batch.go. msgSlot/slotCount are the read-only
	// message -> delivery-slot remap and msgSizeID/sizeCount the dense
	// message-size table (buildSlots); all four are built with prog by the
	// first batched solve (ensureProg) and shared by clones taken after it.
	batch     *batchState
	msgSlot   []int32
	msgSizeID []int32
	slotCount int
	sizeCount int
	// prog is the graph pre-compiled for the batched walk (buildProg):
	// static op classification with spans and receive runs fused. Built
	// once per evaluator that batch-solves, read-only, shared by clones:
	// an evaluator that only answers single points or matched replays
	// never pays for it.
	prog *batchProg

	// Counters for benchmarking and reports.
	fullSolves, incrementalSolves int
	matchedSolves, matchedNarrowed, matchedFallbacks,
	matchedConflicts int
	batchSolves, batchPoints int
	opsEvaluated             int64
}

// lanParams is the subset of network parameters that can affect replay
// state before the first wide-area send. Two parameter sets agreeing on
// these share the same prefix state.
type lanParams struct {
	intraLatency   sim.Time
	intraBandwidth float64
	sendOverhead   sim.Time
	recvOverhead   sim.Time
}

func lanOf(p network.Params) lanParams {
	return lanParams{p.IntraLatency, p.IntraBandwidth, p.SendOverhead, p.RecvOverhead}
}

// Graph returns the recorded graph the evaluator replays. It is read-only
// and safe to share: independent evaluators over the same graph let a sweep
// solve disjoint parameter sets concurrently.
func (e *Eval) Graph() *Graph {
	return e.g
}

// NewEval prepares an evaluator for g. The graph must be valid (see
// Graph.Validate); recorder-built graphs always are.
func NewEval(g *Graph) *Eval {
	e := &Eval{
		g:         g,
		rankEnd:   make([]sim.Time, g.Procs),
		nicFree:   make([]sim.Time, g.Procs),
		gwFree:    make([]sim.Time, g.Clusters),
		wanFree:   make([]sim.Time, g.Clusters*g.Clusters),
		delivered: make([]sim.Time, len(g.MsgSrc)),
	}
	e.wanStart = len(g.Ops)
	for i, k := range g.Ops {
		if k != OpSend {
			continue
		}
		m := g.Arg[i]
		if src, dst := g.MsgSrc[m], g.MsgDst[m]; src != dst && g.ClusterOf[src] != g.ClusterOf[dst] {
			e.wanStart = i
			e.prefixMsgs = int(m)
			break
		}
	}
	return e
}

// Solve predicts the completion time under p. Sweeps that vary only the
// wide-area knobs (WithWAN) automatically reuse the prefix snapshot; any
// other change falls back to a full pass, which also refreshes the
// snapshot.
func (e *Eval) Solve(p network.Params) sim.Time {
	if e.snapValid && lanOf(p) == e.snapLan {
		e.restore()
		e.incrementalSolves++
	} else {
		// ensureSnapshot leaves the live state exactly at the snapshot
		// point, so the suffix walk continues from it directly.
		e.ensureSnapshot(p)
		e.fullSolves++
	}
	e.walk(p, e.wanStart, len(e.g.Ops))
	return e.maxRankEnd()
}

// ensureSnapshot (re)builds the prefix snapshot for p's LAN parameters:
// clear, replay the WAN-independent prefix, snapshot. On return the live
// replay state equals the snapshot. Callers that find snapValid with a
// matching lanOf may restore() instead, which is cheaper.
func (e *Eval) ensureSnapshot(p network.Params) {
	clearTimes(e.rankEnd)
	clearTimes(e.nicFree)
	clearTimes(e.gwFree)
	clearTimes(e.wanFree)
	e.walk(p, 0, e.wanStart)
	e.snapshot(lanOf(p))
}

// walk replays operations [lo, hi) under p against the live scalar state.
// The prefix/suffix split at wanStart is the only split callers use, so a
// walk never straddles a snapshot point.
func (e *Eval) walk(p network.Params, lo, hi int) {
	g := e.g
	c := g.Clusters
	rttExtra := sim.Time(float64(2*p.WANLatency) * p.WANMessageRTTFactor)
	for i := lo; i < hi; i++ {
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
	e.opsEvaluated += int64(hi - lo)
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

func clearTimes(s []sim.Time) {
	for i := range s {
		s[i] = 0
	}
}

// snapshot saves the replay state reached just before the first wide-area
// send. delivered is copied only up to the prefix: later entries are
// rewritten by their own send before any recv reads them (record order).
func (e *Eval) snapshot(lan lanParams) {
	need := len(e.rankEnd) + len(e.nicFree) + len(e.gwFree) + len(e.wanFree) + e.prefixMsgs
	if cap(e.snapState) < need {
		e.snapState = make([]sim.Time, need)
	}
	s := e.snapState[:0]
	s = append(s, e.rankEnd...)
	s = append(s, e.nicFree...)
	s = append(s, e.gwFree...)
	s = append(s, e.wanFree...)
	s = append(s, e.delivered[:e.prefixMsgs]...)
	e.snapState = s
	e.snapLan = lan
	e.snapValid = true
}

func (e *Eval) restore() {
	s := e.snapState
	s = s[copy(e.rankEnd, s):]
	s = s[copy(e.nicFree, s):]
	s = s[copy(e.gwFree, s):]
	s = s[copy(e.wanFree, s):]
	copy(e.delivered[:e.prefixMsgs], s)
}

// Stats reports how the evaluator has been exercised.
type Stats struct {
	// FullSolves and IncrementalSolves count Solve calls by mode.
	FullSolves, IncrementalSolves int
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
	// OpsEvaluated is the total operations replayed across all solves;
	// with incremental reuse it undercounts Nodes×Solves by the skipped
	// prefixes.
	OpsEvaluated int64
	// PrefixNodes is the length of the WAN-independent prefix that
	// incremental solves skip.
	PrefixNodes int
}

// Stats returns the evaluator's counters.
func (e *Eval) Stats() Stats {
	return Stats{
		FullSolves:        e.fullSolves,
		IncrementalSolves: e.incrementalSolves,
		MatchedSolves:     e.matchedSolves,
		MatchedNarrowed:   e.matchedNarrowed,
		MatchedFallbacks:  e.matchedFallbacks,
		MatchedConflicts:  e.matchedConflicts,
		BatchSolves:       e.batchSolves,
		BatchPoints:       e.batchPoints,
		OpsEvaluated:      e.opsEvaluated,
		PrefixNodes:       e.wanStart,
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

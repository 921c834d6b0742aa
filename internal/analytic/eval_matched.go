package analytic

import (
	"math"
	"math/bits"

	"twolayer/internal/network"
	"twolayer/internal/sim"
)

// The frozen replay in Solve keeps the reference run's receive matchings:
// whichever queued message a wildcard receive consumed at the reference
// point, it consumes at every grid point. That is exact at the reference
// and accurate for deterministic communication patterns, but applications
// that post AnySender receives (Water's result collection, unoptimized
// ASP's broadcast forwarding) see their message arrival ORDER change with
// the wide-area parameters, and pinning the reference order misassigns
// multi-millisecond waits.
//
// SolveMatched fixes that: it re-runs the recorded per-rank operation
// streams as a small discrete-event simulation and lets each receive match
// whichever recorded message satisfies its recorded selection pattern
// first under the candidate timings. Message set, per-rank program order
// and compute spans stay frozen (the application's control flow is not
// re-derived — a genuinely adaptive app like branch-and-bound TSP remains
// approximate); only the matching and the link booking order are dynamic.

// timeInf is an unreachable wake time for parked ranks.
const timeInf = sim.Time(math.MaxInt64)

// PrepareMatched builds the per-rank operation streams and the
// op-to-pattern map on first use, plus the reusable replay state. The
// streams (rankOps, opPat) are read-only once built and shared with clones
// taken afterwards, instead of each building its own; the scratch is
// per-evaluator (see allocMatchedScratch).
func (e *Eval) PrepareMatched() {
	if e.rankOps == nil {
		g := e.g
		counts := make([]int32, g.Procs)
		for _, r := range g.Rank {
			counts[r]++
		}
		e.rankOps = make([][]int32, g.Procs)
		for r := range e.rankOps {
			e.rankOps[r] = make([]int32, 0, counts[r])
		}
		e.opPat = make([]int32, len(g.Ops))
		pat := int32(0)
		for i, k := range g.Ops {
			e.rankOps[g.Rank[i]] = append(e.rankOps[g.Rank[i]], int32(i))
			if k == OpRecv {
				e.opPat[i] = pat
				pat++
			} else {
				e.opPat[i] = -1
			}
		}
	}
	if e.mPos == nil {
		e.allocMatchedScratch()
	}
}

// allocMatchedScratch allocates the per-solve matched-replay scratch. A
// clone that inherits the shared streams still needs its own.
func (e *Eval) allocMatchedScratch() {
	g := e.g
	e.mPos = make([]int32, g.Procs)
	e.mAtRecv = make([]bool, g.Procs)
	e.mAwait = make([]int64, g.Procs)
	e.wq.init(g.Procs)
	e.pending = make([][]int32, g.Procs)
	e.consumed = make([]bool, len(g.MsgSrc))
}

// matchedLanTx returns every message's LAN transmission time at bandwidth
// bw. A grid varies only the wide-area knobs, so the table is rebuilt only
// when bw changes: the NIC and gateway legs of every send then read a value
// instead of dividing. The entries are TransmissionTime's own results, so
// the replay's arithmetic is unchanged.
func (e *Eval) matchedLanTx(bw float64) []sim.Time {
	if e.mLanTx == nil || e.mLanBW != bw {
		if e.mLanTx == nil {
			e.mLanTx = make([]sim.Time, len(e.g.MsgBytes))
		}
		for m, size := range e.g.MsgBytes {
			e.mLanTx[m] = sim.TransmissionTime(size, bw)
		}
		e.mLanBW = bw
	}
	return e.mLanTx
}

// The wake queue: at most one pending wakeup exists per rank, keyed (time,
// recorded op index) — record order is the simulator's execution order, so
// the tie-break reproduces the simulator's interleaving of same-time events
// at the reference point; op indices are globally unique, so live keys
// never tie. The queue is a winner tree: every node holds the least key of
// its subtree, key and rank together, so the minimum is the root and no
// operation chases an index back into a per-rank array. The run loop's
// frontier tests read the root; consuming the running rank's wakeup
// re-plays one leaf-to-root path (log2 of the padded rank count, five
// levels at 32 ranks); waking a rank climbs only while the new key wins.
// A flat per-rank array with a cached minimum is simpler, but it rescans
// every rank on every dispatch, and a heatmap makes tens of millions of
// dispatches; it is the oracle in eval_matched_test.go.

// wakeKey is a wakeup — its time, the op the rank resumes at, and the rank
// — packed so that the queue order is the unsigned order of the 128-bit
// number hi:lo: hi is the time with its sign bit flipped, lo the op index
// above the rank. Live keys differ in (time, op), so the rank bits never
// decide between them.
type wakeKey struct {
	hi, lo uint64
}

func keyOf(t sim.Time, op, rank int32) wakeKey {
	return wakeKey{uint64(t) ^ 1<<63, uint64(uint32(op))<<32 | uint64(uint32(rank))}
}

func (k wakeKey) t() sim.Time { return sim.Time(k.hi ^ 1<<63) }
func (k wakeKey) op() int32   { return int32(k.lo >> 32) }
func (k wakeKey) rank() int32 { return int32(uint32(k.lo)) }

// parked is the key of a rank with no wakeup. It loses to every live key,
// and a root holding it means every rank is parked.
var parked = keyOf(timeInf, 0, -1)

// before is the queue order: time, then op index.
func (a wakeKey) before(b wakeKey) bool {
	return a.hi < b.hi || (a.hi == b.hi && a.lo < b.lo)
}

// minKey is the lesser of a and b, without a data-dependent branch (the
// consume path's comparisons are coin flips to a branch predictor): the
// borrow out of the 128-bit subtraction a - b is 1 exactly when a < b.
func minKey(a, b wakeKey) wakeKey {
	_, borrow := bits.Sub64(a.lo, b.lo, 0)
	_, borrow = bits.Sub64(a.hi, b.hi, borrow)
	m := -borrow // all ones when a < b
	return wakeKey{b.hi ^ (a.hi^b.hi)&m, b.lo ^ (a.lo^b.lo)&m}
}

// wakeTree is a winner tree over the ranks: node[1] is the root, rank r's
// leaf is node[leaves+r], and leaves beyond the rank count stay parked.
type wakeTree struct {
	leaves int
	node   []wakeKey
}

func (w *wakeTree) init(procs int) {
	w.leaves = 1
	for w.leaves < procs {
		w.leaves <<= 1
	}
	w.node = make([]wakeKey, 2*w.leaves)
}

// reset parks every rank.
func (w *wakeTree) reset() {
	for i := range w.node {
		w.node[i] = parked
	}
}

// min returns the earliest wakeup: parked when every rank is.
func (w *wakeTree) min() wakeKey { return w.node[1] }

// at returns rank r's wakeup time (timeInf when parked).
func (w *wakeTree) at(r int32) sim.Time { return w.node[w.leaves+int(r)].t() }

// wake schedules rank r at (t, op). A wakeup only ever moves earlier: the
// caller either wakes a parked rank or supersedes its wakeup with a
// strictly earlier one — that is what lets the climb stop at the first
// ancestor the new key does not beat. A later key would leave stale minima
// above it, so it panics rather than corrupt the order.
func (w *wakeTree) wake(r int32, t sim.Time, op int32) {
	node := w.node
	k := keyOf(t, op, r)
	i := w.leaves + int(r)
	if !k.before(node[i]) {
		panic("analytic: wake must move a rank's wakeup earlier")
	}
	node[i] = k
	for i > 1 {
		i >>= 1
		if !k.before(node[i]) {
			return
		}
		node[i] = k
	}
}

// consume parks rank r — the root's rank, about to run — and replays its
// leaf-to-root path.
func (w *wakeTree) consume(r int32) {
	node := w.node
	i := w.leaves + int(r)
	node[i] = parked
	if i == 1 {
		return
	}
	// parked loses to (or equals) the sibling, so the parent takes the
	// sibling's key unchanged.
	k := node[i^1]
	i >>= 1
	node[i] = k
	for i > 1 {
		k = minKey(k, node[i^1])
		i >>= 1
		node[i] = k
	}
}

// take consumes message m from rank r's pending set.
func (e *Eval) take(r, m int32) {
	for j, pm := range e.pending[r] {
		if pm == m {
			e.takeAt(r, j)
			return
		}
	}
	e.consumed[m] = true
}

// takeAt consumes the message at index j of rank r's pending set (a
// message is pending at most once, so this is take of that message).
func (e *Eval) takeAt(r int32, j int) {
	pl := e.pending[r]
	e.consumed[pl[j]] = true
	pl[j] = pl[len(pl)-1]
	e.pending[r] = pl[:len(pl)-1]
}

// notifyMatched re-wakes dst if it is blocked at a receive the newly
// delivered message m satisfies — or if m is the exact message a poll is
// waiting for. An earlier match than the currently scheduled wakeup
// supersedes it.
func (e *Eval) notifyMatched(dst, m int32, d sim.Time) {
	if !e.mAtRecv[dst] {
		return
	}
	g := e.g
	if aw := e.mAwait[dst]; aw >= 0 {
		if aw != int64(m) {
			return
		}
	} else {
		i := e.rankOps[dst][e.mPos[dst]]
		pat := e.opPat[i]
		if f := g.RecvFrom[pat]; f >= 0 && f != g.MsgSrc[m] {
			return
		}
		tg := g.RecvTag[pat]
		if tg == anyTag && e.mNarrow {
			tg = g.MsgTag[g.Arg[i]] // same narrowing as the receive itself
		}
		if tg != anyTag && tg != g.MsgTag[m] {
			return
		}
	}
	wakeAt := e.rankEnd[dst]
	if d > wakeAt {
		wakeAt = d
	}
	if wakeAt >= e.wq.at(dst) {
		return
	}
	e.wq.wake(dst, wakeAt, e.rankOps[dst][e.mPos[dst]])
}

// SolveMatched predicts the completion time under p with dynamic receive
// matching (see the package comment above): a full replay of the per-rank
// streams every time. A graph without wildcard receives is replayed too:
// its matchings are fixed, but its link booking order still follows p. A
// replay can stall when a wildcard receive consumes a message a later
// receive was recorded to need; the solver then escalates through two
// recovery tiers, counted in Stats: first a narrowed pass where
// tag-wildcard receives only reorder within their recorded message kind,
// then the frozen Solve.
func (e *Eval) SolveMatched(p network.Params) sim.Time {
	if t, ok := e.solveMatched(p, false); ok {
		e.matchedSolves++
		return t
	}
	if t, ok := e.solveMatched(p, true); ok {
		e.matchedSolves++
		e.matchedNarrowed++
		return t
	}
	e.matchedFallbacks++
	return e.Solve(p)
}

func (e *Eval) solveMatched(p network.Params, narrow bool) (sim.Time, bool) {
	e.PrepareMatched()
	e.mNarrow = narrow
	g := e.g
	clear(e.rankEnd)
	clear(e.nicFree)
	clear(e.gwFree)
	clear(e.wanFree)
	for i := range e.delivered {
		e.delivered[i] = -1
	}
	for i := range e.consumed {
		e.consumed[i] = false
	}
	e.wq.reset()
	for r := 0; r < g.Procs; r++ {
		e.mPos[r] = 0
		e.mAtRecv[r] = false
		e.mAwait[r] = -1
		e.pending[r] = e.pending[r][:0]
		if len(e.rankOps[r]) > 0 {
			e.wq.wake(int32(r), 0, e.rankOps[r][0])
		}
	}

	c := g.Clusters
	rttExtra := sim.Time(float64(2*p.WANLatency) * p.WANMessageRTTFactor)
	lanTx := e.matchedLanTx(p.IntraBandwidth)
	var executed int64
	for {
		r := e.wq.min().rank()
		if r < 0 {
			break
		}
		e.wq.consume(r) // the minimum now excludes the running rank
		e.mAtRecv[r] = false
		e.mAwait[r] = -1
		ops := e.rankOps[r]
		pos := e.mPos[r]
		t := e.rankEnd[r]
	run:
		for int(pos) < len(ops) {
			i := ops[pos]
			// A rank may run ahead of global time through compute spans,
			// local sends and receive commits: spans and local sends touch
			// only its own clock and its own NIC link, and a receive's
			// commit rule below checks the global frontier itself. Only a
			// wide-area send must wait its global turn (see its case).
			switch g.Ops[i] {
			case OpSpan:
				t += sim.Time(g.Arg[i])
				pos++
			case OpSend:
				m := g.Arg[i]
				dst := g.MsgDst[m]
				wan := false
				if dst != r {
					wan = g.ClusterOf[r] != g.ClusterOf[dst]
				}
				if wan && e.wq.min().before(keyOf(t, i, r)) {
					// The wide-area pipe and the destination gateway are
					// shared FIFO links, booked eagerly at send time as in
					// the simulator — those bookings must happen in global
					// time order. Every queued wakeup lower-bounds its
					// rank's future send times, so waiting until this send
					// is globally next reproduces the simulator's order.
					e.wq.wake(r, t, i)
					break run
				}
				ready := t + p.SendOverhead
				t = ready
				var d sim.Time
				if dst == r {
					d = ready + p.RecvOverhead
				} else {
					// reserve's arithmetic, with the LAN transmission time
					// from the per-message table.
					tx := lanTx[m]
					nicDone := max(ready, e.nicFree[r]) + tx
					e.nicFree[r] = nicDone
					localArrive := nicDone + p.IntraLatency
					if wan {
						sc, dc := g.ClusterOf[r], g.ClusterOf[dst]
						wanDone := reserve(&e.wanFree[int(sc)*c+int(dc)],
							localArrive+p.WANPerMessage, g.MsgBytes[m], p.WANBandwidth, rttExtra)
						gwDone := max(wanDone+p.WANLatency, e.gwFree[dc]) + tx
						e.gwFree[dc] = gwDone
						d = gwDone + p.IntraLatency + p.RecvOverhead
					} else {
						d = localArrive + p.RecvOverhead
					}
				}
				e.delivered[m] = d
				e.pending[dst] = append(e.pending[dst], int32(m))
				pos++
				e.notifyMatched(dst, int32(m), d)
			case OpRecv:
				pat := e.opPat[i]
				if g.RecvPoll[pat] != 0 {
					// Poll hits keep their recorded matching: a non-blocking
					// receive that found a different message (or none) would
					// change control flow, which replay cannot represent.
					m := int32(g.Arg[i])
					if e.consumed[m] {
						e.matchedConflicts++
						pos++
						break
					}
					if e.delivered[m] < 0 {
						// Recorded message not sent yet: wait for it — the
						// frozen hard edge.
						e.mAtRecv[r] = true
						e.mAwait[r] = int64(m)
						break run
					}
					e.take(r, m)
					if d := e.delivered[m]; d > t {
						t = d
					}
					pos++
					break
				}
				from, tag := g.RecvFrom[pat], g.RecvTag[pat]
				if tag == anyTag && e.mNarrow {
					// Narrowed pass: reorder only within the recorded
					// message's kind, so a tag-wildcard receive cannot steal
					// a message a later specific-tag receive needs.
					tag = g.MsgTag[g.Arg[i]]
				}
				best, bestAt, bestD := int32(-1), 0, sim.Time(0)
				for j, pm := range e.pending[r] {
					if from >= 0 && g.MsgSrc[pm] != from {
						continue
					}
					if tag != anyTag && g.MsgTag[pm] != tag {
						continue
					}
					if d := e.delivered[pm]; best < 0 || d < bestD || (d == bestD && pm < best) {
						best, bestAt, bestD = pm, j, d
					}
				}
				if best >= 0 {
					// Commit only if no rank can still produce an earlier
					// match: every queued wakeup is at bestD or later, and
					// an unexecuted send delivers no earlier than its
					// sender's wakeup. (The candidate itself may arrive
					// after t — a blocking receive waits for the earliest
					// matching arrival, which this minimum then is.)
					if e.wq.min().t() >= bestD {
						e.takeAt(r, bestAt)
						if bestD > t {
							t = bestD
						}
						pos++
						break
					}
					// Re-pose the receive when the candidate arrives; an
					// earlier match appearing meanwhile re-wakes us sooner.
					e.mAtRecv[r] = true
					e.wq.wake(r, bestD, i)
					break run
				}
				// Nothing matches yet: park until a matching send shows up.
				e.mAtRecv[r] = true
				break run
			}
			executed++
		}
		e.mPos[r] = pos
		e.rankEnd[r] = t
	}
	e.opsEvaluated += executed

	for r := 0; r < g.Procs; r++ {
		if int(e.mPos[r]) < len(e.rankOps[r]) {
			return 0, false // stalled: the caller escalates
		}
	}
	return e.maxRankEnd(), true
}

// FrozenAccurate reports whether the frozen replay tracks the matched
// replay within relTol (relative error, e.g. 0.0167 for 1.67%) at every
// probe point. When the probes pass, a sweep can answer its whole grid
// with the far cheaper batched frozen pass without giving up matched-mode
// accuracy beyond relTol: the probes are chosen at the grid corners, where
// the two replays diverge first when they diverge at all.
func (e *Eval) FrozenAccurate(probes []network.Params, relTol float64) bool {
	for _, p := range probes {
		m := e.SolveMatched(p)
		f := e.Solve(p)
		if m <= 0 {
			if f != m {
				return false
			}
			continue
		}
		d := float64(f-m) / float64(m)
		if d < 0 {
			d = -d
		}
		if d > relTol {
			return false
		}
	}
	return true
}

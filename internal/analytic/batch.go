package analytic

import (
	"sync"

	"twolayer/internal/network"
	"twolayer/internal/sim"
)

// Batched solving: one topological walk of the recorded DAG answers many
// candidate network points at once. The replay state becomes structure-of-
// arrays — for every rank clock, NIC horizon, gateway horizon, wide-area
// pipe and message delivery there are K lanes, one per candidate point —
// and each operation is decoded once and applied to all lanes before the
// walk moves on. That amortizes the per-node work a scalar grid loop pays
// once per point (op decode, graph-array loads, branch dispatch) and,
// more importantly, replaces the scalar replay's single serial dependency
// chain with K independent ones the CPU can overlap: the adds, max-merges
// and bandwidth divisions of different lanes pipeline instead of stalling
// on each other.
//
// Every lane performs exactly the arithmetic the scalar Solve performs for
// its point — same operations, same order, same intermediate values — so
// SolveBatch is bit-identical to calling Solve once per point. The one
// shared computation, the LAN transmission time of a message when all
// lanes agree on the LAN parameters, is a pure function of (size,
// bandwidth) and therefore equals the value each lane would have computed
// itself.

// BatchLanes is the lane count of one chunk: wide enough to amortize op
// decode and fill the CPU's parallel arithmetic, narrow enough that the
// K-wide delivery array of a large graph stays cache-resident. Points
// beyond it are solved in successive chunks over the same reused state.
// It is also the unit SolveBatchParallel shards by, so callers size their
// worker count in it.
const BatchLanes = 32

// batchState is the K-lane replay state plus the per-lane parameter
// columns, allocated once per evaluator and reused across chunks.
type batchState struct {
	lanes int // allocated lane capacity

	// Lane-major state: entity j's lanes live at [j*K, (j+1)*K).
	rankEnd, nicFree, gwFree, wanFree, delivered []sim.Time

	// Per-lane parameter columns.
	sendOv, recvOv, intraLat, wanLat, wanPer, rtt []sim.Time
	intraBW, wanBW                                []float64

	// Folded per-lane sums the walk would otherwise re-add per message:
	// ilWanPer[lane] = intraLat + wanPer, ilRecv[lane] = intraLat + recvOv.
	// Integer addition is associative, so folding the constants once per
	// chunk leaves every lane's result bit-identical.
	ilWanPer, ilRecv []sim.Time

	// uniform marks chunks whose lanes all share the same LAN parameters
	// (lanParams); the walk then hoists LAN-side constants out of the lane
	// loops and the prefix snapshot is shared across all lanes.
	uniform bool

	// wanTxRows caches, per distinct message size (dense ids from
	// buildSlots), the per-lane wide-area transmission time plus the
	// lane's message RTT charge. Applications send a handful of distinct
	// sizes thousands of times; computing a size's K divisions once and
	// replaying the cached row is bit-identical (a pure function of size
	// and per-chunk lane constants) and removes the single hottest
	// arithmetic from the walk. wanTxDone marks the computed rows and is
	// cleared whenever the lane columns change.
	wanTxRows []sim.Time
	wanTxDone []bool

	// intraTxVal caches, per distinct message size, the LAN transmission
	// time under the chunk's shared intra-cluster bandwidth. Only consulted
	// on the uniform fast path, where every lane would compute the same
	// value; cleared with wanTxDone whenever the lane columns change.
	intraTxVal  []sim.Time
	intraTxDone []bool
}

// intraTx returns the LAN transmission time of one message size under the
// chunk's shared intra-cluster bandwidth (uniform chunks only), computing
// and caching it on first sight.
func (b *batchState) intraTx(sid int32, size int64) sim.Time {
	if !b.intraTxDone[sid] {
		b.intraTxVal[sid] = sim.TransmissionTime(size, b.intraBW[0])
		b.intraTxDone[sid] = true
	}
	return b.intraTxVal[sid]
}

// wanTx returns, per lane, the WAN transmission time of one message size
// plus the lane's per-message RTT charge, computing and caching the row on
// first sight. sid is the size's dense id from the graph's size table.
func (b *batchState) wanTx(sid int32, size int64, k int) []sim.Time {
	row := b.wanTxRows[int(sid)*b.lanes : int(sid)*b.lanes+k]
	if !b.wanTxDone[sid] {
		for lane := 0; lane < k; lane++ {
			row[lane] = sim.TransmissionTime(size, b.wanBW[lane]) + b.rtt[lane]
		}
		b.wanTxDone[sid] = true
	}
	return row
}

// buildSlots computes the message -> delivery-slot remap the batched walk
// uses in place of per-message delivery rows. A message's row is live from
// its send to its last receive; after that the walk never reads it again,
// so the slot can be handed to a later message (linear-scan allocation in
// record order). Messages that are never received free their slot at the
// send itself: their row is written but never read. The remap only moves
// where a lane's delivery time is stored — every lane still computes the
// scalar walk's exact values — but it shrinks the K-wide delivery state
// from all messages to the maximum simultaneously-live count, which is
// what keeps large graphs' batch state cache-resident.
func buildSlots(g *Graph) (msgSlot, msgSizeID []int32, slots, sizes int) {
	nmsg := len(g.MsgSrc)
	msgSlot = make([]int32, nmsg)
	// Dense ids for the distinct message sizes, so per-chunk caches index
	// a slice instead of hashing the raw byte count.
	msgSizeID = make([]int32, nmsg)
	sizeID := make(map[int64]int32)
	for m, size := range g.MsgBytes {
		id, ok := sizeID[size]
		if !ok {
			id = int32(len(sizeID))
			sizeID[size] = id
		}
		msgSizeID[m] = id
	}
	sizes = len(sizeID)
	if sizes == 0 {
		sizes = 1
	}
	lastUse := make([]int32, nmsg)
	for m := range lastUse {
		lastUse[m] = -1
	}
	for i, op := range g.Ops {
		if op == OpRecv {
			lastUse[g.Arg[i]] = int32(i)
		}
	}
	// relHead/relNext chain, per op index, the messages whose last receive
	// is that op (so their slots free there).
	relHead := make([]int32, len(g.Ops))
	for i := range relHead {
		relHead[i] = -1
	}
	relNext := make([]int32, nmsg)
	for m, last := range lastUse {
		if last >= 0 {
			relNext[m] = relHead[last]
			relHead[last] = int32(m)
		}
	}
	var free []int32
	for i, op := range g.Ops {
		if op == OpSend {
			m := g.Arg[i]
			var s int32
			if n := len(free); n > 0 {
				s = free[n-1]
				free = free[:n-1]
			} else {
				s = int32(slots)
				slots++
			}
			msgSlot[m] = s
			if lastUse[m] < 0 {
				free = append(free, s)
			}
		}
		for m := relHead[i]; m >= 0; m = relNext[m] {
			free = append(free, msgSlot[m])
		}
	}
	if slots == 0 {
		slots = 1 // degenerate graph with no sends; keep broadcasts trivial
	}
	return msgSlot, msgSizeID, slots, sizes
}

func (e *Eval) ensureBatch(k int) *batchState {
	b := e.batch
	if b == nil {
		b = &batchState{}
		e.batch = b
	}
	if b.lanes < k {
		g := e.g
		b.lanes = k
		b.rankEnd = make([]sim.Time, g.Procs*k)
		b.nicFree = make([]sim.Time, g.Procs*k)
		b.gwFree = make([]sim.Time, g.Clusters*k)
		b.wanFree = make([]sim.Time, g.Clusters*g.Clusters*k)
		b.delivered = make([]sim.Time, e.slotCount*k)
		b.sendOv = make([]sim.Time, k)
		b.recvOv = make([]sim.Time, k)
		b.intraLat = make([]sim.Time, k)
		b.wanLat = make([]sim.Time, k)
		b.wanPer = make([]sim.Time, k)
		b.rtt = make([]sim.Time, k)
		b.ilWanPer = make([]sim.Time, k)
		b.ilRecv = make([]sim.Time, k)
		b.wanTxRows = make([]sim.Time, e.sizeCount*k)
		b.wanTxDone = make([]bool, e.sizeCount)
		b.intraTxVal = make([]sim.Time, e.sizeCount)
		b.intraTxDone = make([]bool, e.sizeCount)
		b.intraBW = make([]float64, k)
		b.wanBW = make([]float64, k)
	}
	return b
}

// SolveBatch predicts the completion time under every point of ps with the
// frozen replay, in one structure-of-arrays walk of the graph per chunk of
// lanes. The result is bit-identical to calling Solve(ps[i]) for each i
// — the property tests in batch_test.go pin this — and the WAN-prefix
// snapshot is shared across all points that agree on the LAN parameters,
// exactly as consecutive scalar solves would share it.
func (e *Eval) SolveBatch(ps []network.Params) []sim.Time {
	out := make([]sim.Time, len(ps))
	for lo := 0; lo < len(ps); lo += BatchLanes {
		hi := min(lo+BatchLanes, len(ps))
		e.solveBatchChunk(ps[lo:hi], out[lo:hi])
	}
	return out
}

// SolveBatchParallel is SolveBatch with the chunks sharded across a worker
// pool of clones. Results are bit-identical to SolveBatch (lanes are
// independent); workers <= 1, or too few chunks to share, degrade to the
// in-place single-goroutine pass. Counters of the clones are folded back
// into e before returning.
func (e *Eval) SolveBatchParallel(ps []network.Params, workers int) []sim.Time {
	chunks := (len(ps) + BatchLanes - 1) / BatchLanes
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		return e.SolveBatch(ps)
	}
	// Warm the shared prefix snapshot once so every clone inherits it
	// instead of re-walking the WAN-independent prefix. Only meaningful
	// when all points share LAN parameters; otherwise each chunk decides
	// for itself.
	if e.wanStart > 0 && uniformLan(ps) && !(e.snapValid && e.snapLan == lanOf(ps[0])) {
		e.ensureSnapshot(ps[0])
	}
	out := make([]sim.Time, len(ps))
	// Contiguous blocks of whole chunks per worker.
	per := (chunks + workers - 1) / workers * BatchLanes
	var wg sync.WaitGroup
	clones := make([]*Eval, 0, workers)
	for lo := 0; lo < len(ps); lo += per {
		hi := min(lo+per, len(ps))
		cl := e.Clone()
		clones = append(clones, cl)
		wg.Add(1)
		go func(cl *Eval, lo, hi int) {
			defer wg.Done()
			for o := lo; o < hi; o += BatchLanes {
				h := min(o+BatchLanes, hi)
				cl.solveBatchChunk(ps[o:h], out[o:h])
			}
		}(cl, lo, hi)
	}
	wg.Wait()
	for _, cl := range clones {
		e.absorb(cl)
	}
	return out
}

// SolveMatchedBatch predicts the completion time under every point of ps
// with the matched replay, sharding the points across a pool of clones.
// The matched replay is a small discrete-event simulation whose matching
// decisions depend on the evolving per-point state, so its lanes cannot
// share one walk the way the frozen replay's can — but the points are
// independent, so clones solve disjoint blocks concurrently and the result
// is bit-identical to calling SolveMatched(ps[i]) for each i at any worker
// count. Counters of the clones are folded back into e.
func (e *Eval) SolveMatchedBatch(ps []network.Params, workers int) []sim.Time {
	out := make([]sim.Time, len(ps))
	if workers > len(ps) {
		workers = len(ps)
	}
	if workers <= 1 {
		for i, p := range ps {
			out[i] = e.SolveMatched(p)
		}
		return out
	}
	// Build the shared streams (and the wildcard classification) once,
	// before cloning, so the clones share them read-only. A graph without
	// wildcard receives is answered by the frozen pass and needs none.
	if !e.mSpecificSet {
		e.mSpecific = e.allSpecific()
		e.mSpecificSet = true
	}
	if !e.mSpecific {
		e.ensureMatched()
	}
	per := (len(ps) + workers - 1) / workers
	var wg sync.WaitGroup
	clones := make([]*Eval, 0, workers)
	for lo := 0; lo < len(ps); lo += per {
		hi := min(lo+per, len(ps))
		cl := e.Clone()
		clones = append(clones, cl)
		wg.Add(1)
		go func(cl *Eval, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = cl.SolveMatched(ps[i])
			}
		}(cl, lo, hi)
	}
	wg.Wait()
	for _, cl := range clones {
		e.absorb(cl)
	}
	return out
}

// Clone returns an independent evaluator over the same (read-only, shared)
// graph, for concurrent use from another goroutine. The clone shares the
// prepared matched-replay streams and inherits a copy of the current
// prefix snapshot, so it starts as warm as its parent; all mutable replay
// state is its own. Clone itself must be called from the goroutine that
// owns e, not concurrently with solves on e.
func (e *Eval) Clone() *Eval {
	g := e.g
	c := &Eval{
		g:            g,
		rankEnd:      make([]sim.Time, g.Procs),
		nicFree:      make([]sim.Time, g.Procs),
		gwFree:       make([]sim.Time, g.Clusters),
		wanFree:      make([]sim.Time, g.Clusters*g.Clusters),
		delivered:    make([]sim.Time, len(g.MsgSrc)),
		wanStart:     e.wanStart,
		prefixMsgs:   e.prefixMsgs,
		msgSlot:      e.msgSlot,
		msgSizeID:    e.msgSizeID,
		slotCount:    e.slotCount,
		sizeCount:    e.sizeCount,
		prog:         e.prog,
		rankOps:      e.rankOps,
		opPat:        e.opPat,
		mSpecific:    e.mSpecific,
		mSpecificSet: e.mSpecificSet,
	}
	if e.snapValid {
		c.snapValid = true
		c.snapLan = e.snapLan
		c.snapState = append([]sim.Time(nil), e.snapState...)
	}
	if c.rankOps != nil {
		c.allocMatchedScratch()
	}
	return c
}

// absorb folds a finished clone's counters into e, so Stats stays
// meaningful across worker-pool solves.
func (e *Eval) absorb(c *Eval) {
	e.fullSolves += c.fullSolves
	e.incrementalSolves += c.incrementalSolves
	e.matchedSolves += c.matchedSolves
	e.matchedNarrowed += c.matchedNarrowed
	e.matchedFallbacks += c.matchedFallbacks
	e.matchedConflicts += c.matchedConflicts
	e.batchSolves += c.batchSolves
	e.batchPoints += c.batchPoints
	e.opsEvaluated += c.opsEvaluated
}

// uniformLan reports whether every point shares ps[0]'s LAN parameters.
func uniformLan(ps []network.Params) bool {
	lan := lanOf(ps[0])
	for _, p := range ps[1:] {
		if lanOf(p) != lan {
			return false
		}
	}
	return true
}

// solveBatchChunk answers one chunk of at most BatchLanes points: load the
// per-lane parameter columns, seed the lane state (from the shared prefix
// snapshot when possible), walk the suffix once, reduce per-lane maxima.
func (e *Eval) solveBatchChunk(ps []network.Params, out []sim.Time) {
	k := len(ps)
	if k == 0 {
		return
	}
	b := e.ensureBatch(k)
	for i, p := range ps {
		b.sendOv[i] = p.SendOverhead
		b.recvOv[i] = p.RecvOverhead
		b.intraLat[i] = p.IntraLatency
		b.intraBW[i] = p.IntraBandwidth
		b.wanLat[i] = p.WANLatency
		b.wanBW[i] = p.WANBandwidth
		b.wanPer[i] = p.WANPerMessage
		b.rtt[i] = sim.Time(float64(2*p.WANLatency) * p.WANMessageRTTFactor)
		b.ilWanPer[i] = p.IntraLatency + p.WANPerMessage
		b.ilRecv[i] = p.IntraLatency + p.RecvOverhead
	}
	b.uniform = uniformLan(ps)
	clear(b.wanTxDone)
	clear(b.intraTxDone)

	start := 0
	if b.uniform && e.wanStart > 0 {
		// All lanes share the WAN-independent prefix: compute (or reuse)
		// the scalar snapshot once and broadcast it across the lanes.
		if !(e.snapValid && e.snapLan == lanOf(ps[0])) {
			e.ensureSnapshot(ps[0])
		} else {
			e.restore()
		}
		broadcast(b.rankEnd, e.rankEnd, k)
		broadcast(b.nicFree, e.nicFree, k)
		broadcast(b.gwFree, e.gwFree, k)
		broadcast(b.wanFree, e.wanFree, k)
		// Scatter the prefix deliveries through the slot remap in send
		// order: when prefix messages shared a slot, the later (the one
		// still live at wanStart) lands last, which is the value the walk
		// may still read.
		for m := 0; m < e.prefixMsgs; m++ {
			lanes := b.delivered[int(e.msgSlot[m])*k:]
			v := e.delivered[m]
			for i := 0; i < k; i++ {
				lanes[i] = v
			}
		}
		start = e.prog.start
		e.opsEvaluated += int64(len(e.g.Ops)-e.wanStart) * int64(k)
	} else {
		e.opsEvaluated += int64(len(e.g.Ops)) * int64(k)
		zeroLanes(b.rankEnd, e.g.Procs*k)
		zeroLanes(b.nicFree, e.g.Procs*k)
		zeroLanes(b.gwFree, e.g.Clusters*k)
		zeroLanes(b.wanFree, e.g.Clusters*e.g.Clusters*k)
		// delivered needs no clearing: record order writes every message's
		// lanes before any receive reads them.
	}

	if k == BatchLanes {
		e.batchWalk32(b, start)
	} else {
		e.batchWalk(b, k, start)
	}
	e.batchSolves++
	e.batchPoints += k

	// Per-lane maximum over the rank clocks.
	g := e.g
	for lane := 0; lane < k; lane++ {
		out[lane] = 0
	}
	for r := 0; r < g.Procs; r++ {
		re := b.rankEnd[r*k : (r+1)*k]
		for lane, t := range re {
			if t > out[lane] {
				out[lane] = t
			}
		}
	}
}

// broadcast fills each entity's k lanes with its scalar value.
func broadcast(dst, src []sim.Time, k int) {
	for j, v := range src {
		lanes := dst[j*k : (j+1)*k]
		for i := range lanes {
			lanes[i] = v
		}
	}
}

func zeroLanes(s []sim.Time, n int) {
	clear(s[:n])
}

// The batch program: the graph's op stream pre-compiled for the batched
// walk. Classification that is static per graph — loopback vs intra-cluster
// vs wide-area send, the delivery slot, the dense size id, the directed
// cluster-pair row — is resolved once here instead of once per op per
// chunk, and two record-order fusions fold ops the walk would otherwise
// decode separately:
//
//   - consecutive OpSpans of one rank become a single span of the summed
//     duration (int64 addition is associative, so the fused add produces
//     the exact sum the op-at-a-time adds produce);
//   - consecutive OpRecvs of one rank become one run that merges several
//     delivery rows into the rank clock under a single decode (max is
//     associative, and the fused ops are adjacent in record order, so no
//     other op was ever between them);
//   - a lone OpRecv directly followed by the same rank's OpSend folds its
//     max-merge into the send's ready time (ready = max(clock, delivery) +
//     sendOverhead — the exact two-step value), which drops a whole entry
//     and a rank-row round trip per request/reply turnaround.
//
// Both fusions stop at the wanStart boundary so a snapshot-seeded walk can
// still enter the program exactly at the first wide-area send.
const (
	bpSpan uint8 = iota
	bpRecv
	bpRecvRun
	bpLoopback
	bpLocal
	bpWAN
	bpRecvLocal // bpRecv fused into the same rank's next bpLocal
	bpRecvWAN   // bpRecv fused into the same rank's next bpWAN
)

type batchProg struct {
	kind []uint8
	rank []int32 // acting rank
	a    []int32 // delivery slot (sends, bpRecv) or runSlots offset (bpRecvRun)
	b    []int32 // dense size id (bpLocal, bpWAN) or run length (bpRecvRun)
	c    []int32 // directed cluster-pair row (bpWAN)
	d    []int32 // destination cluster (bpWAN)
	t    []int64 // fused duration (bpSpan) or message bytes (send kinds)
	r    []int32 // fused receive's delivery slot (bpRecvLocal, bpRecvWAN)

	runSlots []int32 // bpRecvRun operands

	start int // program counterpart of Eval.wanStart
}

func buildProg(g *Graph, msgSlot, msgSizeID []int32, wanStart int) *batchProg {
	n := len(g.Ops)
	// Fusion only ever shortens the program, so n entries is the exact
	// ceiling; growing eight parallel slices by doubling instead left as
	// much garbage again as the program is long, twice per variant.
	p := &batchProg{
		start: -1,
		kind:  make([]uint8, 0, n),
		rank:  make([]int32, 0, n),
		a:     make([]int32, 0, n),
		b:     make([]int32, 0, n),
		c:     make([]int32, 0, n),
		d:     make([]int32, 0, n),
		t:     make([]int64, 0, n),
		r:     make([]int32, 0, n),
	}
	emit := func(kind uint8, rank, a, b, c, d, r int32, t int64) {
		p.kind = append(p.kind, kind)
		p.rank = append(p.rank, rank)
		p.a = append(p.a, a)
		p.b = append(p.b, b)
		p.c = append(p.c, c)
		p.d = append(p.d, d)
		p.r = append(p.r, r)
		p.t = append(p.t, t)
	}
	// classify returns the send kind of op i and pre-resolves its rows.
	classify := func(i int) (kind uint8, a, b, c, d int32, t int64) {
		m := g.Arg[i]
		rank := g.Rank[i]
		dst := g.MsgDst[m]
		sc, dc := g.ClusterOf[rank], g.ClusterOf[dst]
		switch {
		case dst == rank:
			return bpLoopback, msgSlot[m], 0, 0, 0, 0
		case sc == dc:
			return bpLocal, msgSlot[m], msgSizeID[m], 0, 0, g.MsgBytes[m]
		default:
			return bpWAN, msgSlot[m], msgSizeID[m], int32(int(sc)*g.Clusters + int(dc)), dc, g.MsgBytes[m]
		}
	}
	for i := 0; i < n; i++ {
		if i == wanStart {
			p.start = len(p.kind)
		}
		rank := g.Rank[i]
		switch g.Ops[i] {
		case OpSpan:
			t := g.Arg[i]
			for i+1 < n && i+1 != wanStart && g.Ops[i+1] == OpSpan && g.Rank[i+1] == rank {
				i++
				t += g.Arg[i]
			}
			emit(bpSpan, rank, 0, 0, 0, 0, 0, t)
		case OpRecv:
			first := len(p.runSlots)
			p.runSlots = append(p.runSlots, msgSlot[g.Arg[i]])
			for i+1 < n && i+1 != wanStart && g.Ops[i+1] == OpRecv && g.Rank[i+1] == rank {
				i++
				p.runSlots = append(p.runSlots, msgSlot[g.Arg[i]])
			}
			if cnt := len(p.runSlots) - first; cnt == 1 {
				rs := p.runSlots[first]
				p.runSlots = p.runSlots[:first]
				if i+1 < n && i+1 != wanStart && g.Ops[i+1] == OpSend && g.Rank[i+1] == rank {
					if kind, a, b, c, d, t := classify(i + 1); kind == bpLocal || kind == bpWAN {
						i++
						emit(kind+(bpRecvLocal-bpLocal), rank, a, b, c, d, rs, t)
						continue
					}
				}
				emit(bpRecv, rank, rs, 0, 0, 0, 0, 0)
			} else {
				emit(bpRecvRun, rank, int32(first), int32(cnt), 0, 0, 0, 0)
			}
		case OpSend:
			kind, a, b, c, d, t := classify(i)
			emit(kind, rank, a, b, c, d, 0, t)
		}
	}
	if p.start < 0 {
		p.start = len(p.kind)
	}
	return p
}

// batchWalk replays the batch program from entry `start` across k lanes.
// Each lane runs the scalar walk's arithmetic exactly; the uniform-LAN
// fast path additionally hoists the LAN-side constants (software
// overheads, intra latency, LAN transmission time of the message) out of
// the lane loops — pure functions of values all lanes share, so the
// hoisted results are the values every lane would have computed.
func (e *Eval) batchWalk(b *batchState, k int, start int) {
	p := e.prog
	kinds := p.kind
	for i := start; i < len(kinds); i++ {
		rank := int(p.rank[i])
		switch kinds[i] {
		case bpSpan:
			d := sim.Time(p.t[i])
			re := b.rankEnd[rank*k : (rank+1)*k]
			for lane := range re {
				re[lane] += d
			}
		case bpRecv:
			re := b.rankEnd[rank*k : (rank+1)*k]
			del := b.delivered[int(p.a[i])*k:][:len(re)]
			for lane := range re {
				if del[lane] > re[lane] {
					re[lane] = del[lane]
				}
			}
		case bpRecvRun:
			re := b.rankEnd[rank*k : (rank+1)*k]
			for _, sl := range p.runSlots[p.a[i] : p.a[i]+p.b[i]] {
				del := b.delivered[int(sl)*k:][:len(re)]
				for lane := range re {
					if del[lane] > re[lane] {
						re[lane] = del[lane]
					}
				}
			}
		case bpLoopback:
			re := b.rankEnd[rank*k : (rank+1)*k]
			del := b.delivered[int(p.a[i])*k:][:len(re)]
			if b.uniform {
				so, ro := b.sendOv[0], b.recvOv[0]
				for lane := range re {
					ready := re[lane] + so
					re[lane] = ready
					del[lane] = ready + ro
				}
			} else {
				for lane := range re {
					ready := re[lane] + b.sendOv[lane]
					re[lane] = ready
					del[lane] = ready + b.recvOv[lane]
				}
			}
		case bpLocal:
			re := b.rankEnd[rank*k : (rank+1)*k]
			del := b.delivered[int(p.a[i])*k:][:len(re)]
			nic := b.nicFree[rank*k:][:len(re)]
			if b.uniform {
				so, ilro := b.sendOv[0], b.ilRecv[0]
				tx := b.intraTx(p.b[i], p.t[i])
				for lane := range re {
					ready := re[lane] + so
					re[lane] = ready
					s := ready
					if nic[lane] > s {
						s = nic[lane]
					}
					nicDone := s + tx
					nic[lane] = nicDone
					del[lane] = nicDone + ilro
				}
			} else {
				for lane := range re {
					ready := re[lane] + b.sendOv[lane]
					re[lane] = ready
					s := ready
					if nic[lane] > s {
						s = nic[lane]
					}
					nicDone := s + sim.TransmissionTime(p.t[i], b.intraBW[lane])
					nic[lane] = nicDone
					del[lane] = nicDone + b.ilRecv[lane]
				}
			}
		case bpRecvLocal:
			re := b.rankEnd[rank*k : (rank+1)*k]
			dr := b.delivered[int(p.r[i])*k:][:len(re)]
			del := b.delivered[int(p.a[i])*k:][:len(re)]
			nic := b.nicFree[rank*k:][:len(re)]
			if b.uniform {
				so, ilro := b.sendOv[0], b.ilRecv[0]
				tx := b.intraTx(p.b[i], p.t[i])
				for lane := range re {
					v := re[lane]
					if dr[lane] > v {
						v = dr[lane]
					}
					ready := v + so
					re[lane] = ready
					s := ready
					if nic[lane] > s {
						s = nic[lane]
					}
					nicDone := s + tx
					nic[lane] = nicDone
					del[lane] = nicDone + ilro
				}
			} else {
				for lane := range re {
					v := re[lane]
					if dr[lane] > v {
						v = dr[lane]
					}
					ready := v + b.sendOv[lane]
					re[lane] = ready
					s := ready
					if nic[lane] > s {
						s = nic[lane]
					}
					nicDone := s + sim.TransmissionTime(p.t[i], b.intraBW[lane])
					nic[lane] = nicDone
					del[lane] = nicDone + b.ilRecv[lane]
				}
			}
		case bpRecvWAN:
			re := b.rankEnd[rank*k : (rank+1)*k]
			dr := b.delivered[int(p.r[i])*k:][:len(re)]
			del := b.delivered[int(p.a[i])*k:][:len(re)]
			nic := b.nicFree[rank*k:][:len(re)]
			wan := b.wanFree[int(p.c[i])*k:][:len(re)]
			gw := b.gwFree[int(p.d[i])*k:][:len(re)]
			wtx := b.wanTx(p.b[i], p.t[i], k)[:len(re)]
			if b.uniform {
				so, ilro := b.sendOv[0], b.ilRecv[0]
				tx := b.intraTx(p.b[i], p.t[i])
				ilwp := b.ilWanPer[:len(re)]
				wlat := b.wanLat[:len(re)]
				for lane := range re {
					v := re[lane]
					if dr[lane] > v {
						v = dr[lane]
					}
					ready := v + so
					re[lane] = ready
					s := ready
					if nic[lane] > s {
						s = nic[lane]
					}
					nicDone := s + tx
					nic[lane] = nicDone
					s = nicDone + ilwp[lane]
					if wan[lane] > s {
						s = wan[lane]
					}
					wanDone := s + wtx[lane]
					wan[lane] = wanDone
					s = wanDone + wlat[lane]
					if gw[lane] > s {
						s = gw[lane]
					}
					gwDone := s + tx
					gw[lane] = gwDone
					del[lane] = gwDone + ilro
				}
			} else {
				for lane := range re {
					v := re[lane]
					if dr[lane] > v {
						v = dr[lane]
					}
					ready := v + b.sendOv[lane]
					re[lane] = ready
					s := ready
					if nic[lane] > s {
						s = nic[lane]
					}
					nicDone := s + sim.TransmissionTime(p.t[i], b.intraBW[lane])
					nic[lane] = nicDone
					s = nicDone + b.ilWanPer[lane]
					if wan[lane] > s {
						s = wan[lane]
					}
					wanDone := s + wtx[lane]
					wan[lane] = wanDone
					s = wanDone + b.wanLat[lane]
					if gw[lane] > s {
						s = gw[lane]
					}
					gwDone := s + sim.TransmissionTime(p.t[i], b.intraBW[lane])
					gw[lane] = gwDone
					del[lane] = gwDone + b.ilRecv[lane]
				}
			}
		case bpWAN:
			re := b.rankEnd[rank*k : (rank+1)*k]
			del := b.delivered[int(p.a[i])*k:][:len(re)]
			nic := b.nicFree[rank*k:][:len(re)]
			wan := b.wanFree[int(p.c[i])*k:][:len(re)]
			gw := b.gwFree[int(p.d[i])*k:][:len(re)]
			wtx := b.wanTx(p.b[i], p.t[i], k)[:len(re)]
			if b.uniform {
				so, ilro := b.sendOv[0], b.ilRecv[0]
				tx := b.intraTx(p.b[i], p.t[i])
				ilwp := b.ilWanPer[:len(re)]
				wlat := b.wanLat[:len(re)]
				for lane := range re {
					ready := re[lane] + so
					re[lane] = ready
					s := ready
					if nic[lane] > s {
						s = nic[lane]
					}
					nicDone := s + tx
					nic[lane] = nicDone
					s = nicDone + ilwp[lane]
					if wan[lane] > s {
						s = wan[lane]
					}
					wanDone := s + wtx[lane]
					wan[lane] = wanDone
					s = wanDone + wlat[lane]
					if gw[lane] > s {
						s = gw[lane]
					}
					gwDone := s + tx
					gw[lane] = gwDone
					del[lane] = gwDone + ilro
				}
			} else {
				for lane := range re {
					ready := re[lane] + b.sendOv[lane]
					re[lane] = ready
					s := ready
					if nic[lane] > s {
						s = nic[lane]
					}
					nicDone := s + sim.TransmissionTime(p.t[i], b.intraBW[lane])
					nic[lane] = nicDone
					s = nicDone + b.ilWanPer[lane]
					if wan[lane] > s {
						s = wan[lane]
					}
					wanDone := s + wtx[lane]
					wan[lane] = wanDone
					s = wanDone + b.wanLat[lane]
					if gw[lane] > s {
						s = gw[lane]
					}
					gwDone := s + sim.TransmissionTime(p.t[i], b.intraBW[lane])
					gw[lane] = gwDone
					del[lane] = gwDone + b.ilRecv[lane]
				}
			}
		}
	}
}

// batchWalk32 is batchWalk specialized to full chunks (k == BatchLanes).
// Converting each entity's lane slice to a *[BatchLanes]sim.Time array
// pointer gives every lane loop a compile-time trip count and no bounds
// checks — worth ~30% on the walk, the kernel the whole grid spends its
// time in. The arithmetic is identical to batchWalk's.
func (e *Eval) batchWalk32(b *batchState, start int) {
	const k = BatchLanes
	type row = [BatchLanes]sim.Time
	p := e.prog
	kinds := p.kind
	wanLatCol := (*row)(b.wanLat)
	ilWanPer := (*row)(b.ilWanPer)
	ilRecv := (*row)(b.ilRecv)
	for i := start; i < len(kinds); i++ {
		rank := int(p.rank[i])
		switch kinds[i] {
		case bpSpan:
			d := sim.Time(p.t[i])
			re := (*row)(b.rankEnd[rank*k:])
			for lane := 0; lane < k; lane++ {
				re[lane] += d
			}
		case bpRecv:
			re := (*row)(b.rankEnd[rank*k:])
			del := (*row)(b.delivered[int(p.a[i])*k:])
			for lane := 0; lane < k; lane++ {
				if del[lane] > re[lane] {
					re[lane] = del[lane]
				}
			}
		case bpRecvRun:
			re := (*row)(b.rankEnd[rank*k:])
			for _, sl := range p.runSlots[p.a[i] : p.a[i]+p.b[i]] {
				del := (*row)(b.delivered[int(sl)*k:])
				for lane := 0; lane < k; lane++ {
					if del[lane] > re[lane] {
						re[lane] = del[lane]
					}
				}
			}
		case bpLoopback:
			re := (*row)(b.rankEnd[rank*k:])
			del := (*row)(b.delivered[int(p.a[i])*k:])
			if b.uniform {
				so, ro := b.sendOv[0], b.recvOv[0]
				for lane := 0; lane < k; lane++ {
					ready := re[lane] + so
					re[lane] = ready
					del[lane] = ready + ro
				}
			} else {
				sov, rov := (*row)(b.sendOv), (*row)(b.recvOv)
				for lane := 0; lane < k; lane++ {
					ready := re[lane] + sov[lane]
					re[lane] = ready
					del[lane] = ready + rov[lane]
				}
			}
		case bpLocal:
			re := (*row)(b.rankEnd[rank*k:])
			del := (*row)(b.delivered[int(p.a[i])*k:])
			nic := (*row)(b.nicFree[rank*k:])
			if b.uniform {
				so, ilro := b.sendOv[0], b.ilRecv[0]
				tx := b.intraTx(p.b[i], p.t[i])
				for lane := 0; lane < k; lane++ {
					ready := re[lane] + so
					re[lane] = ready
					s := ready
					if nic[lane] > s {
						s = nic[lane]
					}
					nicDone := s + tx
					nic[lane] = nicDone
					del[lane] = nicDone + ilro
				}
			} else {
				sov := (*row)(b.sendOv)
				for lane := 0; lane < k; lane++ {
					ready := re[lane] + sov[lane]
					re[lane] = ready
					s := ready
					if nic[lane] > s {
						s = nic[lane]
					}
					nicDone := s + sim.TransmissionTime(p.t[i], b.intraBW[lane])
					nic[lane] = nicDone
					del[lane] = nicDone + ilRecv[lane]
				}
			}
		case bpRecvLocal:
			re := (*row)(b.rankEnd[rank*k:])
			dr := (*row)(b.delivered[int(p.r[i])*k:])
			del := (*row)(b.delivered[int(p.a[i])*k:])
			nic := (*row)(b.nicFree[rank*k:])
			if b.uniform {
				so, ilro := b.sendOv[0], b.ilRecv[0]
				tx := b.intraTx(p.b[i], p.t[i])
				for lane := 0; lane < k; lane++ {
					v := re[lane]
					if dr[lane] > v {
						v = dr[lane]
					}
					ready := v + so
					re[lane] = ready
					s := ready
					if nic[lane] > s {
						s = nic[lane]
					}
					nicDone := s + tx
					nic[lane] = nicDone
					del[lane] = nicDone + ilro
				}
			} else {
				sov := (*row)(b.sendOv)
				for lane := 0; lane < k; lane++ {
					v := re[lane]
					if dr[lane] > v {
						v = dr[lane]
					}
					ready := v + sov[lane]
					re[lane] = ready
					s := ready
					if nic[lane] > s {
						s = nic[lane]
					}
					nicDone := s + sim.TransmissionTime(p.t[i], b.intraBW[lane])
					nic[lane] = nicDone
					del[lane] = nicDone + ilRecv[lane]
				}
			}
		case bpRecvWAN:
			re := (*row)(b.rankEnd[rank*k:])
			dr := (*row)(b.delivered[int(p.r[i])*k:])
			del := (*row)(b.delivered[int(p.a[i])*k:])
			nic := (*row)(b.nicFree[rank*k:])
			wan := (*row)(b.wanFree[int(p.c[i])*k:])
			gw := (*row)(b.gwFree[int(p.d[i])*k:])
			wtx := (*row)(b.wanTx(p.b[i], p.t[i], k))
			if b.uniform {
				so, ilro := b.sendOv[0], b.ilRecv[0]
				tx := b.intraTx(p.b[i], p.t[i])
				for lane := 0; lane < k; lane++ {
					v := re[lane]
					if dr[lane] > v {
						v = dr[lane]
					}
					ready := v + so
					re[lane] = ready
					s := ready
					if nic[lane] > s {
						s = nic[lane]
					}
					nicDone := s + tx
					nic[lane] = nicDone
					s = nicDone + ilWanPer[lane]
					if wan[lane] > s {
						s = wan[lane]
					}
					wanDone := s + wtx[lane]
					wan[lane] = wanDone
					s = wanDone + wanLatCol[lane]
					if gw[lane] > s {
						s = gw[lane]
					}
					gwDone := s + tx
					gw[lane] = gwDone
					del[lane] = gwDone + ilro
				}
			} else {
				sov := (*row)(b.sendOv)
				for lane := 0; lane < k; lane++ {
					v := re[lane]
					if dr[lane] > v {
						v = dr[lane]
					}
					ready := v + sov[lane]
					re[lane] = ready
					s := ready
					if nic[lane] > s {
						s = nic[lane]
					}
					nicDone := s + sim.TransmissionTime(p.t[i], b.intraBW[lane])
					nic[lane] = nicDone
					s = nicDone + ilWanPer[lane]
					if wan[lane] > s {
						s = wan[lane]
					}
					wanDone := s + wtx[lane]
					wan[lane] = wanDone
					s = wanDone + wanLatCol[lane]
					if gw[lane] > s {
						s = gw[lane]
					}
					gwDone := s + sim.TransmissionTime(p.t[i], b.intraBW[lane])
					gw[lane] = gwDone
					del[lane] = gwDone + ilRecv[lane]
				}
			}
		case bpWAN:
			re := (*row)(b.rankEnd[rank*k:])
			del := (*row)(b.delivered[int(p.a[i])*k:])
			nic := (*row)(b.nicFree[rank*k:])
			wan := (*row)(b.wanFree[int(p.c[i])*k:])
			gw := (*row)(b.gwFree[int(p.d[i])*k:])
			wtx := (*row)(b.wanTx(p.b[i], p.t[i], k))
			if b.uniform {
				so, ilro := b.sendOv[0], b.ilRecv[0]
				tx := b.intraTx(p.b[i], p.t[i])
				for lane := 0; lane < k; lane++ {
					ready := re[lane] + so
					re[lane] = ready
					s := ready
					if nic[lane] > s {
						s = nic[lane]
					}
					nicDone := s + tx
					nic[lane] = nicDone
					s = nicDone + ilWanPer[lane]
					if wan[lane] > s {
						s = wan[lane]
					}
					wanDone := s + wtx[lane]
					wan[lane] = wanDone
					s = wanDone + wanLatCol[lane]
					if gw[lane] > s {
						s = gw[lane]
					}
					gwDone := s + tx
					gw[lane] = gwDone
					del[lane] = gwDone + ilro
				}
			} else {
				sov := (*row)(b.sendOv)
				for lane := 0; lane < k; lane++ {
					ready := re[lane] + sov[lane]
					re[lane] = ready
					s := ready
					if nic[lane] > s {
						s = nic[lane]
					}
					nicDone := s + sim.TransmissionTime(p.t[i], b.intraBW[lane])
					nic[lane] = nicDone
					s = nicDone + ilWanPer[lane]
					if wan[lane] > s {
						s = wan[lane]
					}
					wanDone := s + wtx[lane]
					wan[lane] = wanDone
					s = wanDone + wanLatCol[lane]
					if gw[lane] > s {
						s = gw[lane]
					}
					gwDone := s + sim.TransmissionTime(p.t[i], b.intraBW[lane])
					gw[lane] = gwDone
					del[lane] = gwDone + ilRecv[lane]
				}
			}
		}
	}
}

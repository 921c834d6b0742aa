package analytic

import (
	"twolayer/internal/network"
	"twolayer/internal/sim"
)

// Batched solving: one topological walk of the recorded DAG answers many
// candidate network points at once. The replay state becomes structure-of-
// arrays — for every rank clock, NIC horizon, gateway horizon, wide-area
// pipe and message delivery there is one row of BatchLanes lanes, one per
// candidate point — and each operation is decoded once and applied to all
// lanes before the walk moves on. That amortizes the per-node work a scalar
// grid loop pays once per point (op decode, graph-array loads, branch
// dispatch) and, more importantly, replaces the scalar replay's single
// serial dependency chain with independent ones the CPU can overlap: the
// adds and max-merges of different lanes pipeline instead of stalling on
// each other.
//
// Every lane performs exactly the arithmetic the scalar Solve performs for
// its point — same operations, same order, same intermediate values — so
// SolveBatch is bit-identical to calling Solve once per point. The values
// the walk caches per message size (the LAN and WAN transmission times)
// are pure functions of (size, lane parameters) and therefore equal what
// each lane would have computed itself.

// BatchLanes is the lane count of one chunk: wide enough to amortize op
// decode and fill the CPU's parallel arithmetic, narrow enough that the
// delivery rows of a large graph stay cache-resident. Every chunk is walked
// at exactly this width — a partial chunk is padded with copies of its
// first point — so each lane loop has a compile-time trip count and no
// bounds checks.
const BatchLanes = 32

// laneRow is one entity's state (or one parameter) across the lanes.
type laneRow = [BatchLanes]sim.Time

// batchState is the lane replay state plus the per-lane parameter columns,
// allocated once per evaluator and reused across chunks.
type batchState struct {
	// Per-entity lane rows.
	rankEnd, nicFree, gwFree, wanFree, delivered []laneRow

	// Per-lane parameter columns: the send kernels' (see laneCols), then
	// the loopback's receive overhead, the message RTT charge and the
	// bandwidths the transmission rows are computed from.
	cols           laneCols
	recvOv, rtt    laneRow
	intraBW, wanBW [BatchLanes]float64

	// lanTx and wanTx cache, per distinct message size (dense ids from
	// buildSlots), the per-lane LAN transmission time and the WAN
	// transmission time plus the lane's message RTT charge. Applications
	// send a handful of distinct sizes thousands of times; computing a
	// size's divisions once per chunk removes the hottest arithmetic from
	// the walk. txDone marks the computed rows and is cleared whenever the
	// lane columns change.
	lanTx, wanTx []laneRow
	txDone       []bool
}

// tx returns the LAN and WAN transmission rows of one message size,
// computing and caching them on first sight.
func (b *batchState) tx(sid int32, size int64) (lan, wan *laneRow) {
	if !b.txDone[sid] {
		b.fillTx(sid, size)
	}
	return &b.lanTx[sid], &b.wanTx[sid]
}

// fillTx is tx's first-sight work, kept out of tx so the hit path inlines
// into the walk.
func (b *batchState) fillTx(sid int32, size int64) {
	lan, wan := &b.lanTx[sid], &b.wanTx[sid]
	for lane := range lan {
		lan[lane] = sim.TransmissionTime(size, b.intraBW[lane])
		wan[lane] = sim.TransmissionTime(size, b.wanBW[lane]) + b.rtt[lane]
	}
	b.txDone[sid] = true
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
	return msgSlot, msgSizeID, slots, sizes
}

// ensureProg builds the batch program on the first batched solve.
func (e *Eval) ensureProg() {
	if e.prog == nil {
		e.prog = buildProg(e.g)
	}
}

func (e *Eval) ensureBatch() *batchState {
	e.ensureProg()
	if e.batch == nil {
		g := e.g
		e.batch = &batchState{
			rankEnd:   make([]laneRow, g.Procs),
			nicFree:   make([]laneRow, g.Procs),
			gwFree:    make([]laneRow, g.Clusters),
			wanFree:   make([]laneRow, g.Clusters*g.Clusters),
			delivered: make([]laneRow, e.prog.slots),
			lanTx:     make([]laneRow, e.prog.sizes),
			wanTx:     make([]laneRow, e.prog.sizes),
			txDone:    make([]bool, e.prog.sizes),
		}
	}
	return e.batch
}

// SolveBatch predicts the completion time under every point of ps with the
// frozen replay, in one structure-of-arrays walk of the whole graph per
// chunk of lanes. The result is bit-identical to calling Solve(ps[i]) for
// each i — the property tests in batch_test.go pin this.
func (e *Eval) SolveBatch(ps []network.Params) []sim.Time {
	out := make([]sim.Time, len(ps))
	for lo := 0; lo < len(ps); lo += BatchLanes {
		hi := min(lo+BatchLanes, len(ps))
		e.solveBatchChunk(ps[lo:hi], out[lo:hi])
	}
	return out
}

// Clone returns an independent evaluator over the same (read-only, shared)
// graph, for concurrent use from another goroutine. The clone shares the
// prepared matched-replay streams and batch program, so it starts as warm
// as its parent; all mutable replay state is its own. Clone reads e and
// writes nothing of it, so it must not run concurrently with a solve on e,
// but an evaluator nobody solves on may be cloned from any goroutine: an
// evaluator pool can keep one prepared Eval idle and hand out clones of it
// under the pool's lock.
func (e *Eval) Clone() *Eval {
	c := NewEval(e.g)
	c.prog = e.prog
	c.rankOps, c.opPat = e.rankOps, e.opPat
	if c.rankOps != nil {
		c.allocMatchedScratch()
	}
	return c
}

// solveBatchChunk answers one chunk of at most BatchLanes points: load the
// per-lane parameter columns (padding lanes repeat ps[0]), clear the lane
// state, walk the whole program once, reduce per-lane maxima. Only the
// first len(ps) lanes are read out or counted.
func (e *Eval) solveBatchChunk(ps []network.Params, out []sim.Time) {
	k := len(ps)
	if k == 0 {
		return
	}
	b := e.ensureBatch()
	for lane := range BatchLanes {
		p := ps[0]
		if lane < k {
			p = ps[lane]
		}
		b.cols.sendOv[lane] = p.SendOverhead
		b.cols.ilRecv[lane] = p.IntraLatency + p.RecvOverhead
		b.cols.ilWanPer[lane] = p.IntraLatency + p.WANPerMessage
		b.cols.wanLat[lane] = p.WANLatency
		b.recvOv[lane] = p.RecvOverhead
		b.rtt[lane] = sim.Time(float64(2*p.WANLatency) * p.WANMessageRTTFactor)
		b.intraBW[lane] = p.IntraBandwidth
		b.wanBW[lane] = p.WANBandwidth
	}
	clear(b.txDone)
	clear(b.rankEnd)
	clear(b.nicFree)
	clear(b.gwFree)
	clear(b.wanFree)
	// delivered needs no clearing: record order writes every message's
	// lanes before any receive reads them.

	e.batchWalk32(b)
	e.opsEvaluated += int64(len(e.g.Ops)) * int64(k)
	e.batchSolves++
	e.batchPoints += k

	// Per-lane maximum over the rank clocks.
	var end laneRow
	for r := range b.rankEnd {
		re := &b.rankEnd[r]
		for lane := range end {
			end[lane] = max(end[lane], re[lane])
		}
	}
	copy(out, end[:k])
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

	// slots and sizes count the delivery slots and the distinct message
	// sizes (buildSlots): the batch state's row counts.
	slots, sizes int
}

func buildProg(g *Graph) *batchProg {
	msgSlot, msgSizeID, slots, sizes := buildSlots(g)
	n := len(g.Ops)
	// Fusion only ever shortens the program, so n entries is the exact
	// ceiling; growing eight parallel slices by doubling instead left as
	// much garbage again as the program is long, twice per variant.
	p := &batchProg{
		slots: slots,
		sizes: sizes,
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
		rank := g.Rank[i]
		switch g.Ops[i] {
		case OpSpan:
			t := g.Arg[i]
			for i+1 < n && g.Ops[i+1] == OpSpan && g.Rank[i+1] == rank {
				i++
				t += g.Arg[i]
			}
			emit(bpSpan, rank, 0, 0, 0, 0, 0, t)
		case OpRecv:
			first := len(p.runSlots)
			p.runSlots = append(p.runSlots, msgSlot[g.Arg[i]])
			for i+1 < n && g.Ops[i+1] == OpRecv && g.Rank[i+1] == rank {
				i++
				p.runSlots = append(p.runSlots, msgSlot[g.Arg[i]])
			}
			if cnt := len(p.runSlots) - first; cnt == 1 {
				rs := p.runSlots[first]
				p.runSlots = p.runSlots[:first]
				if i+1 < n && g.Ops[i+1] == OpSend && g.Rank[i+1] == rank {
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
	return p
}

// batchWalk32 replays the whole batch program across all BatchLanes lanes,
// one lane kernel call per entry (lanes.go): the vector kernel where the
// build and CPU have one, else its Go body. The LAN-side
// values come from the per-lane columns and the per-size transmission
// rows, whether or not the lanes agree on them. A single receive is a
// receive run of one slot. The fused receive kinds merge the received
// delivery row into the send's ready time; their unfused counterparts pass
// the rank row itself, and max(x, x) = x.
func (e *Eval) batchWalk32(b *batchState) {
	p := e.prog
	kinds := p.kind
	for i := range kinds {
		re := &b.rankEnd[p.rank[i]]
		switch kind := kinds[i]; kind {
		case bpSpan:
			if useAVX2 {
				spanAddAVX2(re, sim.Time(p.t[i]))
			} else {
				spanAddGo(re, sim.Time(p.t[i]))
			}
		case bpRecv, bpRecvRun:
			slots := p.a[i : i+1]
			if kind == bpRecvRun {
				slots = p.runSlots[p.a[i] : p.a[i]+p.b[i]]
			}
			if useAVX2 {
				recvMergeAVX2(re, b.delivered, slots)
			} else {
				recvMergeGo(re, b.delivered, slots)
			}
		case bpLoopback:
			del := &b.delivered[p.a[i]]
			for lane := range re {
				ready := re[lane] + b.cols.sendOv[lane]
				re[lane] = ready
				del[lane] = ready + b.recvOv[lane]
			}
		case bpLocal, bpRecvLocal:
			dr := re
			if kind == bpRecvLocal {
				dr = &b.delivered[p.r[i]]
			}
			del, nic := &b.delivered[p.a[i]], &b.nicFree[p.rank[i]]
			tx, _ := b.tx(p.b[i], p.t[i])
			if useAVX2 {
				sendLocalAVX2(re, dr, del, nic, tx, &b.cols)
			} else {
				sendLocalGo(re, dr, del, nic, tx, &b.cols)
			}
		case bpWAN, bpRecvWAN:
			dr := re
			if kind == bpRecvWAN {
				dr = &b.delivered[p.r[i]]
			}
			del, nic := &b.delivered[p.a[i]], &b.nicFree[p.rank[i]]
			wan, gw := &b.wanFree[p.c[i]], &b.gwFree[p.d[i]]
			tx, wtx := b.tx(p.b[i], p.t[i])
			if useAVX2 {
				sendWANAVX2(re, dr, del, nic, wan, gw, tx, wtx, &b.cols)
			} else {
				sendWANGo(re, dr, del, nic, wan, gw, tx, wtx, &b.cols)
			}
		}
	}
}

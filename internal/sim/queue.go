package sim

import (
	"math"
	"math/bits"
	"slices"
)

// event is a scheduled unit of work in virtual time: at its instant the
// kernel calls h.HandleEvent(token). The seq field breaks ties between
// events scheduled for the same instant: earlier-scheduled events fire
// first, which makes the simulation fully deterministic.
//
// There is one kind of event: a process wake-up carries the *Proc as its
// handler, a closure rides in a callback, the network and runtime layers
// pass preallocated handlers — and none of the three allocates.
type event struct {
	at    Time
	seq   uint64
	h     EventHandler
	token uint64

	// next links the event's slot in the queue's slab: to the next event of
	// the same ring bucket while queued, to the next free slot once popped.
	next int32
}

// callback adapts a closure to EventHandler. A func value is pointer-shaped,
// so the conversion to the interface does not allocate.
type callback func()

func (f callback) HandleEvent(uint64) { f() }

// The ladder queue's two rungs. Time is cut into slots of 2^slotBits ns
// (16.4 us: the scale of the model's software overheads and intra-cluster
// latencies) and slots into blocks of blockSlots (4.2 ms). Rung 1 is a ring
// of one bucket per slot over the current block and the next; rung 2 is a
// ring of one bucket per block over the numBlocks blocks after those (1.07 s
// out: the regime study's retransmission timers and slow wide-area
// deliveries). Events beyond rung 2 overflow into a binary heap and are
// merged back slot by slot as the clock reaches them.
const (
	slotBits      = 14
	blockSlotBits = 8
	blockSlots    = 1 << blockSlotBits
	ringBuckets   = 2 * blockSlots
	ringMask      = ringBuckets - 1
	numBlocks     = 256
	blockMask     = numBlocks - 1
)

func slotOf(at Time) int64 { return int64(at) >> slotBits }

// ref is what the queue orders: an event's (at, seq) key and the slab slot
// holding the event itself. It carries no pointer, so moving, sorting and
// sifting refs costs no write barrier and the collector never scans them.
type ref struct {
	at  Time
	seq uint64
	idx int32
}

func (a *ref) before(b *ref) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a two-rung ladder queue (Tang, Goh & Thng, ACM TOMACS 2005)
// ordered by (at, seq).
//
// A queued event lives exactly once, from Push to Pop, in a slot of slab,
// and is linked in O(1) into the first of these that covers its slot: the
// sorted run of the active slot, a rung-1 slot bucket, a rung-2 block
// bucket, or the overflow heap (O(log n)). Buckets are unsorted intrusive
// lists through event.next. When the clock enters a block, the block after
// it is poured from rung 2 into rung 1, and a rung-1 bucket is sorted once
// when the clock enters its slot, so an event moves at most twice before it
// fires. Only refs are ever sorted or sifted. The pop order is bit-identical
// to a single global heap: strictly ascending (at, seq).
//
// The zero value is an empty queue ready for use.
type eventQueue struct {
	size int

	// slab holds the queued events; slot 0 is never used, so index 0 means
	// "none" in every link. free heads the list of recycled slots, threaded
	// through event.next: the slab only grows to the queue's high-water mark.
	slab []event
	free int32

	// curSlot is the slot whose events are staged in active; all earlier
	// slots have fully drained. active[activeIdx:] is sorted by (at, seq).
	curSlot   int64
	active    []ref
	activeIdx int

	// Rung 1: buckets[s&ringMask] heads the list of the events of slot s for
	// s after curSlot in the current block or the next one. Rung 2:
	// blocks[b&blockMask] heads the list of block b for the numBlocks blocks
	// after those. ringOcc and blockOcc are their non-empty bitmaps.
	buckets  [ringBuckets]int32
	ringOcc  [ringBuckets / 64]uint64
	blocks   [numBlocks]int32
	blockOcc [numBlocks / 64]uint64

	// far is a binary min-heap of the events beyond rung 2.
	far []ref

	stats QueueStats
}

// QueueStats counts an event queue's traffic, exactly and machine-
// independently, like Kernel.Switches.
type QueueStats struct {
	PushActive, PushRing, PushBlock, PushFar uint64 // pushes into the active slot, rung 1, rung 2, the overflow heap
	Advances                                 uint64 // moves of the active slot to the next occupied one
	SlabHigh                                 int    // most events queued at once (slab slots ever used)
}

func (q *eventQueue) Len() int { return q.size }

// Push inserts an event: O(1) within rung 2's horizon, O(log f) for the f
// overflow events beyond it.
func (q *eventQueue) Push(e event) {
	q.size++
	idx := q.free
	if idx != 0 {
		q.free = q.slab[idx].next
	} else {
		if len(q.slab) == 0 {
			q.slab = append(q.slab, event{}) // slot 0: the nil link
		}
		if len(q.slab) > math.MaxInt32 {
			panic("sim: event queue slab exceeds int32 slots")
		}
		idx = int32(len(q.slab))
		q.slab = append(q.slab, event{})
		q.stats.SlabHigh = int(idx)
	}
	s := slotOf(e.at)
	block := s >> blockSlotBits
	switch next := q.curSlot>>blockSlotBits + 2; {
	case s <= q.curSlot:
		// The active slot (or, defensively, the past — the kernel forbids
		// scheduling before now): ordered insert into the remaining run.
		q.stats.PushActive++
		q.insertActive(ref{at: e.at, seq: e.seq, idx: idx})
	case block < next:
		q.stats.PushRing++
		e.next = link(q.buckets[:], q.ringOcc[:], s&ringMask, idx)
	case block < next+numBlocks:
		q.stats.PushBlock++
		e.next = link(q.blocks[:], q.blockOcc[:], block&blockMask, idx)
	default:
		q.stats.PushFar++
		q.pushFar(ref{at: e.at, seq: e.seq, idx: idx})
	}
	q.slab[idx] = e
}

// link makes idx the head of bucket i of a rung, marks the bucket occupied
// and returns the old head for the event's next link.
func link(heads []int32, occ []uint64, i int64, idx int32) int32 {
	old := heads[i]
	heads[i] = idx
	occ[i>>6] |= 1 << (i & 63)
	return old
}

// insertActive places r into the sorted tail active[activeIdx:]. The tail is
// almost always tiny (events of a single 16 us slot), so the copy is cheap.
func (q *eventQueue) insertActive(r ref) {
	lo, hi := q.activeIdx, len(q.active)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.before(&q.active[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	q.active = append(q.active, ref{})
	copy(q.active[lo+1:], q.active[lo:])
	q.active[lo] = r
}

// Pop removes and returns the earliest event by (at, seq), recycling its
// slot. It panics on an empty queue; the kernel always checks Len first.
func (q *eventQueue) Pop() event {
	if q.activeIdx == len(q.active) {
		q.advance()
	}
	idx := q.active[q.activeIdx].idx
	q.activeIdx++
	q.size--
	slot := &q.slab[idx]
	e := *slot
	slot.h = nil // release a fired closure for GC
	slot.next = q.free
	q.free = idx
	return e
}

// Peek returns the earliest event time without removing it.
func (q *eventQueue) Peek() Time {
	if q.size == 0 {
		return MaxTime
	}
	if q.activeIdx == len(q.active) {
		q.advance()
	}
	return q.active[q.activeIdx].at
}

// advance moves the queue to the next non-empty slot: the earliest occupied
// rung-1 bucket or the overflow heap's front slot, whichever is sooner. When
// rung 1 is empty and rung 2's earliest block comes no later than the
// heap's front, the clock first moves to the end of the block before it,
// which pours that block into rung 1. The slot's events (rung-1 bucket plus
// any overflow events that fall in it) are staged into active and sorted
// once.
func (q *eventQueue) advance() {
	q.stats.Advances++
	q.active = q.active[:0]
	q.activeIdx = 0

	s, ok := q.nextRingSlot()
	if !ok {
		if b, found := q.nextBlock(); found && (len(q.far) == 0 || b <= slotOf(q.far[0].at)>>blockSlotBits) {
			q.moveTo(b<<blockSlotBits - 1)
			s, ok = q.nextRingSlot()
		}
	}
	if len(q.far) > 0 {
		if farSlot := slotOf(q.far[0].at); !ok || farSlot < s {
			s = farSlot
		}
	} else if !ok {
		panic("sim: advance on empty event queue")
	}
	q.moveTo(s)

	i := s & ringMask
	if q.ringOcc[i>>6]&(1<<(i&63)) != 0 {
		for idx := q.buckets[i]; idx != 0; {
			e := &q.slab[idx]
			q.active = append(q.active, ref{at: e.at, seq: e.seq, idx: idx})
			idx = e.next
		}
		q.buckets[i] = 0
		q.ringOcc[i>>6] &^= 1 << (i & 63)
	}
	for len(q.far) > 0 && slotOf(q.far[0].at) == s {
		q.active = append(q.active, q.popFar())
	}
	// (at, seq) is a total order — seq is unique — so stability is irrelevant
	// and any correct sort yields the same, bit-exact event order. A slot
	// holds a handful of refs (4.9 on average over a cold Small Figure 3),
	// which slices.SortFunc insertion-sorts in place; unlike sort.Slice it
	// allocates nothing per call.
	slices.SortFunc(q.active, func(x, y ref) int {
		if x.before(&y) {
			return -1
		}
		return 1
	})
}

// moveTo sets the clock's slot to s, no earlier than today's, and pours
// into rung 1 the rung-2 blocks that its window now covers: the block of s
// and the one after. Blocks the move skips over hold no events, since the
// clock never passes a queued event, so at most two blocks are poured.
func (q *eventQueue) moveTo(s int64) {
	old := q.curSlot >> blockSlotBits
	q.curSlot = s
	cur := s >> blockSlotBits
	for b := max(old+2, cur); b <= cur+1 && b < old+2+numBlocks; b++ {
		i := b & blockMask
		if q.blockOcc[i>>6]&(1<<(i&63)) == 0 {
			continue
		}
		for idx := q.blocks[i]; idx != 0; {
			e := &q.slab[idx]
			next := e.next
			e.next = link(q.buckets[:], q.ringOcc[:], slotOf(e.at)&ringMask, idx)
			idx = next
		}
		q.blocks[i] = 0
		q.blockOcc[i>>6] &^= 1 << (i & 63)
	}
}

// nextRingSlot returns the earliest occupied rung-1 slot after curSlot.
func (q *eventQueue) nextRingSlot() (int64, bool) {
	end := (q.curSlot>>blockSlotBits + 2) << blockSlotBits
	off, ok := firstSet(q.ringOcc[:], q.curSlot+1, end-q.curSlot-1)
	return q.curSlot + 1 + off, ok
}

// nextBlock returns the earliest occupied rung-2 block.
func (q *eventQueue) nextBlock() (int64, bool) {
	first := q.curSlot>>blockSlotBits + 2
	off, ok := firstSet(q.blockOcc[:], first, numBlocks)
	return first + off, ok
}

// firstSet scans the ring bitmap occ in ring order from position start for
// n positions and returns the offset of the first set bit: one word-sized
// probe per 64 positions, whatever the occupancy. A rung's bits are set only
// inside its window, so the first bit found is its earliest bucket.
func firstSet(occ []uint64, start, n int64) (int64, bool) {
	mask := int64(len(occ)*64 - 1)
	for off := int64(0); off < n; {
		idx := (start + off) & mask
		b := idx & 63
		if word := occ[idx>>6] >> uint(b); word != 0 {
			if off += int64(bits.TrailingZeros64(word)); off < n {
				return off, true
			}
			return 0, false
		}
		off += 64 - b
	}
	return 0, false
}

// pushFar and popFar maintain far as a binary min-heap by (at, seq). It is
// hand-rolled rather than built on container/heap to avoid the
// per-operation interface boxing.
func (q *eventQueue) pushFar(r ref) {
	h := append(q.far, r)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !r.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = r
	q.far = h
}

func (q *eventQueue) popFar() ref {
	h := q.far
	top := h[0]
	n := len(h) - 1
	r := h[n] // sifted down from the root
	h = h[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h[right].before(&h[child]) {
			child = right
		}
		if !h[child].before(&r) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = r
	}
	q.far = h
	return top
}

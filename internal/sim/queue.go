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

// The near-future band of the ladder queue: a ring of numBuckets buckets,
// each slotWidth of virtual time wide. slotBits = 14 gives 16.4 us buckets —
// the scale of the model's software overheads and intra-cluster latencies —
// and a horizon of numBuckets * 16.4 us ≈ 4.2 ms. Events beyond the horizon
// (wide-area messages at 10-300 ms latency) overflow into a binary heap and
// are merged back slot by slot as the clock reaches them.
const (
	slotBits   = 14
	numBuckets = 256
	bucketMask = numBuckets - 1
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

// eventQueue is a two-level ladder/calendar queue ordered by (at, seq).
//
// A queued event lives exactly once, from Push to Pop, in a slot of slab.
// Near-future events (within ~4.2 ms of the active slot) are linked into
// ring buckets in O(1); a bucket is sorted once when the clock enters its
// slot, so push/pop are O(1) amortized for the near band. Far-future events
// fall back to a binary min-heap, preserving O(log n) worst-case behavior
// for sparse long-latency events. Only refs are ever moved or compared. The
// pop order is bit-identical to a single global heap: strictly ascending
// (at, seq).
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

	// buckets[s&bucketMask] heads the unsorted list (through event.next) of
	// the events of slot s for s in (curSlot, curSlot+numBuckets); occupied
	// is its non-empty bitmap.
	buckets  [numBuckets]int32
	occupied [numBuckets / 64]uint64

	// far is a binary min-heap of the events at or beyond the horizon.
	far []ref

	stats QueueStats
}

// QueueStats counts an event queue's traffic, exactly and machine-
// independently, like Kernel.Switches.
type QueueStats struct {
	PushActive, PushRing, PushFar uint64 // pushes into the active slot, a ring bucket, the far heap
	Advances                      uint64 // moves of the active slot to the next occupied one
	SlabHigh                      int    // most events queued at once (slab slots ever used)
}

func (q *eventQueue) Len() int { return q.size }

// Push inserts an event. Amortized O(1) for events within the near-future
// horizon, O(log f) for the f far-future events beyond it.
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
	r := ref{at: e.at, seq: e.seq, idx: idx}
	s := slotOf(e.at)
	switch {
	case s <= q.curSlot:
		// The active slot (or, defensively, the past — the kernel forbids
		// scheduling before now): ordered insert into the remaining run.
		q.stats.PushActive++
		q.insertActive(r)
	case s < q.curSlot+numBuckets:
		q.stats.PushRing++
		i := s & bucketMask
		e.next = q.buckets[i]
		q.buckets[i] = idx
		q.occupied[i>>6] |= 1 << (i & 63)
	default:
		q.stats.PushFar++
		q.pushFar(r)
	}
	q.slab[idx] = e
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
// ring bucket or the far heap's front slot, whichever is sooner. The slot's
// events (ring bucket plus any far events that fall in it) are staged into
// active and sorted once.
func (q *eventQueue) advance() {
	q.stats.Advances++
	q.active = q.active[:0]
	q.activeIdx = 0

	ringSlot, ok := q.nextOccupiedSlot()
	s := ringSlot
	if len(q.far) > 0 {
		if farSlot := slotOf(q.far[0].at); !ok || farSlot < ringSlot {
			s = farSlot
		}
	} else if !ok {
		panic("sim: advance on empty event queue")
	}

	if ok && ringSlot == s {
		i := s & bucketMask
		for idx := q.buckets[i]; idx != 0; {
			e := &q.slab[idx]
			q.active = append(q.active, ref{at: e.at, seq: e.seq, idx: idx})
			idx = e.next
		}
		q.buckets[i] = 0
		q.occupied[i>>6] &^= 1 << (i & 63)
	}
	for len(q.far) > 0 && slotOf(q.far[0].at) == s {
		q.active = append(q.active, q.popFar())
	}
	q.curSlot = s
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

// nextOccupiedSlot scans the occupancy bitmap in ring order for the
// earliest slot after curSlot that holds events. O(1): at most five
// word-sized probes regardless of occupancy.
func (q *eventQueue) nextOccupiedSlot() (int64, bool) {
	// Ring slots lie in (curSlot, curSlot+numBuckets); walk indices starting
	// just after curSlot's own position, wrapping around the ring. The slot
	// distance from curSlot+1 is exactly the scan offset, so the first set
	// bit found is the earliest occupied slot.
	start := (q.curSlot + 1) & bucketMask
	for off := int64(0); off < numBuckets; {
		idx := (start + off) & bucketMask
		b := idx & 63
		word := q.occupied[idx>>6] >> uint(b)
		if word != 0 {
			tz := int64(bits.TrailingZeros64(word))
			if off+tz < numBuckets {
				return q.curSlot + 1 + off + tz, true
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

package sim

import (
	"math/rand"
	"testing"
)

// eventHeap is the test oracle: a binary min-heap of whole events ordered by
// (at, seq), the structure the ladder queue replaced. It shares no code with
// eventQueue — it moves the structs themselves, not refs into a slab.
type eventHeap struct {
	items []event
}

func (q *eventHeap) Len() int { return len(q.items) }

func (q *eventHeap) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventHeap) Push(e event) {
	q.items = append(q.items, e)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *eventHeap) Pop() event {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	for i := 0; ; {
		left := 2*i + 1
		if left >= last {
			break
		}
		smallest := left
		if right := left + 1; right < last && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			break
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
	return top
}

func (q *eventHeap) PeekTime() Time {
	if len(q.items) == 0 {
		return MaxTime
	}
	return q.items[0].at
}

// residue is a handler that knows which residue class of seq it belongs to,
// so a payload read from the wrong slab slot is caught even when the key in
// front of it is right.
type residue uint64

func (residue) HandleEvent(uint64) {}

var residues = [...]EventHandler{residue(0), residue(1), residue(2), residue(3), residue(4)}

// stamped returns an event whose payload is a function of its seq: the
// token equals it and the handler is its residue class.
func stamped(at Time, seq uint64) event {
	return event{at: at, seq: seq, h: residues[seq%uint64(len(residues))], token: seq}
}

// sameEvent checks a popped event against the oracle's: key and payload.
func sameEvent(t *testing.T, got, want event) {
	t.Helper()
	if got.at != want.at || got.seq != want.seq {
		t.Fatalf("ladder popped (at=%v seq=%d), heap popped (at=%v seq=%d)",
			got.at, got.seq, want.at, want.seq)
	}
	if got.token != want.token || got.h != want.h {
		t.Fatalf("event (at=%v seq=%d) came back with payload (h=%v token=%d), pushed with (h=%v token=%d)",
			got.at, got.seq, got.h, got.token, want.h, want.token)
	}
}

// diffCheck drains q, checking every pop against the oracle heap. Both
// structures received identical pushes; they must agree on the exact
// (at, seq) pop sequence and on the payload behind every key.
func diffCheck(t *testing.T, q *eventQueue, ref *eventHeap) {
	t.Helper()
	for ref.Len() > 0 {
		if q.Len() != ref.Len() {
			t.Fatalf("lengths diverged: ladder %d, heap %d", q.Len(), ref.Len())
		}
		want := ref.Pop()
		if pt := q.Peek(); pt != want.at {
			t.Fatalf("Peek = %v, heap says %v", pt, want.at)
		}
		sameEvent(t, q.Pop(), want)
	}
	if q.Len() != 0 {
		t.Fatalf("ladder still holds %d events after heap drained", q.Len())
	}
}

// TestQueueDifferentialRandom drives the ladder queue and the reference
// heap with the same randomized workload: interleaved pushes and pops,
// monotonically advancing "now", horizons from sub-slot to far beyond the
// ladder (a 300 ms WAN wake-up is ~70 ladder rounds away), and heavy
// same-timestamp ties. Any divergence in pop order is a determinism bug.
func TestQueueDifferentialRandom(t *testing.T) {
	horizons := []Time{
		0,                 // all ties at now
		100,               // sub-slot
		50 * Microsecond,  // a few slots
		5 * Millisecond,   // just past the in-ladder horizon
		300 * Millisecond, // deep far-future heap territory
		2 * Second,        // absurdly far
	}
	for round := 0; round < 20; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		var q eventQueue
		var ref eventHeap
		var now Time
		var seq uint64
		push := func() {
			h := horizons[rng.Intn(len(horizons))]
			var at Time
			if h == 0 {
				at = now
			} else {
				at = now + Time(rng.Int63n(int64(h)+1))
			}
			seq++
			q.Push(stamped(at, seq))
			ref.Push(stamped(at, seq))
		}
		for op := 0; op < 2000; op++ {
			if ref.Len() == 0 || rng.Intn(3) > 0 {
				push()
				continue
			}
			want := ref.Pop()
			sameEvent(t, q.Pop(), want)
			if want.at < now {
				t.Fatalf("round %d: reference heap went backwards", round)
			}
			now = want.at // pushes never predate the last popped time, as in the kernel
		}
		diffCheck(t, &q, &ref)
	}
}

// horizonEdge returns the first instant beyond q's ring: one tick earlier is
// the last ring bucket, this instant and later is the far heap.
func horizonEdge(q *eventQueue) Time { return Time((q.curSlot + numBuckets) << slotBits) }

// TestQueueSlabRecycling holds the queue at a small, constant depth for many
// times that depth in pop-then-push cycles, so every slab slot is reused
// hundreds of times under a different key and payload. Phases alternate
// between near horizons and far ones, which walks events across the ring/far
// boundary both ways: timestamps first reached by far pushes later take ring
// pushes into the same slot (the two must merge), and whenever only far
// events are left the ring jumps ahead to them. Pushes on either side of the
// exact horizon tick ride along.
func TestQueueSlabRecycling(t *testing.T) {
	const depth, cycles = 48, 60000
	rng := rand.New(rand.NewSource(23))
	var q eventQueue
	var ref eventHeap
	var now Time
	var seq uint64
	push := func(at Time) {
		seq++
		q.Push(stamped(at, seq))
		ref.Push(stamped(at, seq))
	}
	for i := 0; i < depth; i++ {
		push(Time(rng.Int63n(int64(Millisecond))))
	}
	for c := 0; c < cycles; c++ {
		want := ref.Pop()
		if pt := q.Peek(); pt != want.at {
			t.Fatalf("cycle %d: Peek = %v, heap says %v", c, pt, want.at)
		}
		sameEvent(t, q.Pop(), want)
		now = want.at
		switch far := (c/500)%2 == 1; {
		case c%97 == 0:
			push(max(now, horizonEdge(&q)+Time(rng.Intn(3))-1))
		case far && rng.Intn(3) == 0:
			push(now + 5*Millisecond + Time(rng.Int63n(int64(300*Millisecond))))
		default:
			push(now + Time(rng.Int63n(int64(200*Microsecond))))
		}
	}
	st := q.stats
	if st.SlabHigh > depth {
		t.Errorf("slab grew to %d slots at a constant depth of %d: popped slots are not recycled", st.SlabHigh, depth)
	}
	if st.PushActive == 0 || st.PushRing == 0 || st.PushFar == 0 {
		t.Errorf("a destination saw no push: %+v", st)
	}
	if got := st.PushActive + st.PushRing + st.PushFar; got != seq {
		t.Errorf("counted %d pushes, made %d", got, seq)
	}
	diffCheck(t, &q, &ref)
	for i := 1; i < len(q.slab); i++ {
		if q.slab[i].h != nil {
			t.Fatalf("freed slab slot %d still holds handler %v", i, q.slab[i].h)
		}
	}
}

// FuzzEventQueue decodes a byte stream into pop / peek / push operations —
// a push takes a second byte for its horizon — and holds the ladder queue to
// the oracle heap after every one.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{2, 0, 2, 0, 0, 0})                             // ties at now
	f.Add([]byte{6, 255, 10, 1, 14, 128, 18, 7, 0, 1, 0, 0, 0}) // one push per band, drained
	f.Add([]byte{22, 0, 22, 1, 22, 2, 2, 9, 0, 0, 0, 0})        // either side of the horizon tick
	f.Add([]byte{18, 200, 0, 6, 3, 18, 100, 0, 0})              // far event pulls the ring forward
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q eventQueue
		var ref eventHeap
		var now Time
		var seq uint64
		for i := 0; i < len(ops); i++ {
			switch op := ops[i]; op & 3 {
			case 0:
				if ref.Len() == 0 {
					continue
				}
				want := ref.Pop()
				sameEvent(t, q.Pop(), want)
				now = want.at
			case 1:
				if got, want := q.Peek(), ref.PeekTime(); got != want {
					t.Fatalf("op %d: Peek = %v, heap says %v", i, got, want)
				}
			default:
				var arg Time
				if i++; i < len(ops) {
					arg = Time(ops[i])
				}
				var at Time
				switch (op >> 2) % 6 {
				case 0:
					at = now
				case 1:
					at = now + arg // sub-slot
				case 2:
					at = now + arg*20*Microsecond // across the ring
				case 3:
					at = now + arg*Millisecond // around and past the horizon
				case 4:
					at = now + arg*40*Millisecond // far heap
				case 5:
					at = max(now, horizonEdge(&q)+arg%3-1)
				}
				seq++
				q.Push(stamped(at, seq))
				ref.Push(stamped(at, seq))
			}
			if q.Len() != ref.Len() {
				t.Fatalf("op %d: lengths diverged: ladder %d, heap %d", i, q.Len(), ref.Len())
			}
		}
		diffCheck(t, &q, &ref)
	})
}

// TestQueuePopOrderProperty is the standalone ordering property: whatever
// the push pattern, pops come out in strictly increasing (at, seq) order.
func TestQueuePopOrderProperty(t *testing.T) {
	for round := 0; round < 10; round++ {
		rng := rand.New(rand.NewSource(1000 + int64(round)))
		var q eventQueue
		var now Time
		var seq uint64
		pending := 0
		var lastAt Time
		var lastSeq uint64
		first := true
		for op := 0; op < 3000; op++ {
			if pending == 0 || rng.Intn(2) == 0 {
				seq++
				at := now + Time(rng.Int63n(int64(10*Millisecond)))
				q.Push(event{at: at, seq: seq})
				pending++
				continue
			}
			ev := q.Pop()
			pending--
			if ev.at < now {
				t.Fatalf("round %d: popped %v before now %v", round, ev.at, now)
			}
			if !first {
				if ev.at < lastAt || (ev.at == lastAt && ev.seq <= lastSeq) {
					t.Fatalf("round %d: pop order violated: (%v,%d) after (%v,%d)",
						round, ev.at, ev.seq, lastAt, lastSeq)
				}
			}
			first = false
			lastAt, lastSeq = ev.at, ev.seq
			now = ev.at
		}
	}
}

// TestQueueFarFutureMigration pins the regime boundary: events pushed far
// beyond the ladder horizon must still pop in global order as the current
// slot advances toward them.
func TestQueueFarFutureMigration(t *testing.T) {
	var q eventQueue
	var seq uint64
	push := func(at Time) {
		seq++
		q.Push(event{at: at, seq: seq})
	}
	// One event per decade of delay, pushed in reverse order.
	delays := []Time{300 * Millisecond, 30 * Millisecond, 3 * Millisecond,
		300 * Microsecond, 30 * Microsecond, 3 * Microsecond}
	for _, d := range delays {
		push(d)
	}
	var prev Time = -1
	for q.Len() > 0 {
		ev := q.Pop()
		if ev.at <= prev {
			t.Fatalf("pop order violated at %v after %v", ev.at, prev)
		}
		prev = ev.at
	}
	if prev != 300*Millisecond {
		t.Fatalf("last pop at %v, want 300ms", prev)
	}
}

// sweepMix draws an event's delay from now the way a cold Small Figure 3
// places its 8.8 M pushes (EXPERIMENTS.md, "Event queue on a slab"): 34 %
// into the slot being drained, 46 % into a ring bucket, 20 % beyond the
// ring — wide-area deliveries, 10-300 ms out.
func sweepMix(rng *rand.Rand) Time {
	switch p := rng.Intn(100); {
	case p < 34:
		return Time(rng.Int63n(int64(500 * Nanosecond)))
	case p < 80:
		return 20*Microsecond + Time(rng.Int63n(int64(4*Millisecond)))
	default:
		return 10*Millisecond + Time(rng.Int63n(int64(290*Millisecond)))
	}
}

// TestQueueSteadyStateZeroAllocs: once the slab, the active run and the far
// heap have reached their high-water marks, a pop-then-push cycle at
// constant depth allocates nothing.
func TestQueueSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q eventQueue
	var seq uint64
	cycle := func() {
		now := Time(0)
		if q.Len() == 300 {
			now = q.Pop().at
		}
		seq++
		q.Push(event{at: now + sweepMix(rng), seq: seq, h: residues[0]})
	}
	for i := 0; i < 300000; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 500; i++ {
			cycle()
		}
	}); avg != 0 {
		t.Errorf("%v allocations per 500 steady-state cycles, want 0", avg)
	}
	// The mix is only worth gating if it looks like the sweep's.
	st := q.stats
	for _, c := range []struct {
		name   string
		n      uint64
		target float64
	}{{"active", st.PushActive, 34}, {"ring", st.PushRing, 46}, {"far", st.PushFar, 20}} {
		if pct := 100 * float64(c.n) / float64(seq); pct < c.target-5 || pct > c.target+5 {
			t.Errorf("%s pushes are %.1f %% of the mix, want %v +- 5", c.name, pct, c.target)
		}
	}
}

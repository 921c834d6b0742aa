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
// monotonically advancing "now", horizons from sub-slot to beyond rung 2
// (a 2 s wake-up lands in the overflow heap), and heavy same-timestamp
// ties. Any divergence in pop order is a determinism bug.
func TestQueueDifferentialRandom(t *testing.T) {
	horizons := []Time{
		0,                 // all ties at now
		100,               // sub-slot
		50 * Microsecond,  // a few slots
		5 * Millisecond,   // rung 1 into rung 2
		300 * Millisecond, // rung 2
		2 * Second,        // into the overflow heap
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

// ringEdge returns the first instant beyond q's rung 1: one tick earlier is
// its last slot bucket, this instant is rung 2's first block.
func ringEdge(q *eventQueue) Time {
	return Time((q.curSlot>>blockSlotBits + 2) << (blockSlotBits + slotBits))
}

// blockSpan is the virtual time one rung-2 block covers.
const blockSpan = Time(1) << (blockSlotBits + slotBits)

// horizonEdge returns the first instant beyond q's rung 2: one tick earlier
// is its last block bucket, this instant and later is the overflow heap.
func horizonEdge(q *eventQueue) Time {
	return ringEdge(q) + Time(numBlocks)<<(blockSlotBits+slotBits)
}

// TestQueueSlabRecycling holds the queue at a small, constant depth for many
// times that depth in pop-then-push cycles, so every slab slot is reused
// hundreds of times under a different key and payload. Phases alternate
// between near horizons and far ones, which walks events across the rung
// and overflow boundaries both ways: timestamps first reached by far pushes
// later take near pushes into the same slot (the two must merge), and
// whenever only far events are left the clock jumps ahead to them. Pushes on
// either side of each rung's exact edge tick ride along.
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
		case c%89 == 0:
			push(max(now, ringEdge(&q)+Time(rng.Intn(3))-1))
		case far && rng.Intn(3) == 0:
			push(now + 5*Millisecond + Time(rng.Int63n(int64(1500*Millisecond))))
		default:
			push(now + Time(rng.Int63n(int64(200*Microsecond))))
		}
	}
	st := q.stats
	if st.SlabHigh > depth {
		t.Errorf("slab grew to %d slots at a constant depth of %d: popped slots are not recycled", st.SlabHigh, depth)
	}
	if st.PushActive == 0 || st.PushRing == 0 || st.PushBlock == 0 || st.PushFar == 0 {
		t.Errorf("a destination saw no push: %+v", st)
	}
	if got := st.PushActive + st.PushRing + st.PushBlock + st.PushFar; got != seq {
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
// the oracle heap after every one. Horizons reach 10 s, well past rung 2.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{2, 0, 2, 0, 0, 0})                             // ties at now
	f.Add([]byte{6, 255, 10, 1, 14, 128, 18, 7, 0, 1, 0, 0, 0}) // one push per band, drained
	f.Add([]byte{22, 0, 22, 1, 22, 2, 2, 9, 0, 0, 0, 0})        // either side of the overflow edge
	f.Add([]byte{26, 0, 26, 1, 26, 2, 2, 9, 0, 0, 0, 0})        // either side of rung 1's edge
	f.Add([]byte{30, 0, 30, 1, 30, 255, 18, 255, 0, 0, 0, 0})   // on block boundaries, then 10 s out
	f.Add([]byte{18, 200, 0, 6, 3, 18, 100, 0, 0})              // far event pulls the clock forward
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
				switch (op >> 2) % 8 {
				case 0:
					at = now
				case 1:
					at = now + arg // sub-slot
				case 2:
					at = now + arg*20*Microsecond // across rung 1
				case 3:
					at = now + arg*Millisecond // rung 1 into rung 2
				case 4:
					at = now + arg*40*Millisecond // rung 2 into the overflow heap
				case 5:
					at = max(now, horizonEdge(&q)+arg%3-1)
				case 6:
					at = max(now, ringEdge(&q)+arg%3-1)
				case 7:
					at = (now/blockSpan + 1 + 2*arg) * blockSpan // exactly on a block boundary
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
	delays := []Time{3 * Second, 300 * Millisecond, 30 * Millisecond, 3 * Millisecond,
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
	if prev != 3*Second {
		t.Fatalf("last pop at %v, want 3s", prev)
	}
}

// sweepMix draws an event's delay from now the way a cold Small Figure 3
// places its 8.8 M pushes (EXPERIMENTS.md, "Event queue on a slab"): 34 %
// into the slot being drained, 46 % within 4.2 ms, 20 % beyond that —
// wide-area deliveries, 10-300 ms out, all in rung 2.
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

// regimeMix draws a delay the way the regime study places its 986,672
// pushes (EXPERIMENTS.md, "Count before cutting"): 19.3 % into the slot
// being drained, 34.9 % within 4.2 ms, 45.8 % from 5 ms to 1.5 s out —
// slow wide-area deliveries and retransmission timers, across rung 2 and
// past it into the overflow heap.
func regimeMix(rng *rand.Rand) Time {
	switch p := rng.Intn(1000); {
	case p < 193:
		return Time(rng.Int63n(int64(500 * Nanosecond)))
	case p < 542:
		return 20*Microsecond + Time(rng.Int63n(int64(4*Millisecond)))
	default:
		return 5*Millisecond + Time(rng.Int63n(int64(1495*Millisecond)))
	}
}

// TestQueueTiersDifferential holds the queue to the oracle heap on delays
// from 0 to 10 s, so every push lands in the active slot, a rung-1 slot,
// a rung-2 block or the overflow heap. A share of pushes land exactly on a
// block boundary or on either side of a rung's edge tick, and every round
// ends in drain phases, after which the clock jumps across runs of empty
// blocks to the next push 1-10 s out.
func TestQueueTiersDifferential(t *testing.T) {
	var total QueueStats
	jumps := 0
	for round := 0; round < 30; round++ {
		rng := rand.New(rand.NewSource(100 + int64(round)))
		var q eventQueue
		var ref eventHeap
		var now Time
		var seq uint64
		for op := 0; op < 4000; op++ {
			if ref.Len() > 0 && (op%500 >= 450 || rng.Intn(2) == 0) {
				want := ref.Pop()
				if pt := q.Peek(); pt != want.at {
					t.Fatalf("round %d op %d: Peek = %v, heap says %v", round, op, pt, want.at)
				}
				sameEvent(t, q.Pop(), want)
				if want.at/blockSpan > now/blockSpan+2 {
					jumps++
				}
				now = want.at
				continue
			}
			var at Time
			switch rng.Intn(8) {
			case 0:
				at = now
			case 1:
				at = now + Time(rng.Int63n(int64(Time(1)<<slotBits)))
			case 2:
				at = now + Time(rng.Int63n(int64(2*blockSpan)))
			case 3:
				at = now + Time(rng.Int63n(int64(Second)))
			case 4:
				at = now + Second + Time(rng.Int63n(int64(9*Second)))
			case 5:
				at = (now/blockSpan + 1 + Time(rng.Intn(300))) * blockSpan
			case 6:
				at = max(now, ringEdge(&q)+Time(rng.Intn(3))-1)
			case 7:
				at = max(now, horizonEdge(&q)+Time(rng.Intn(3))-1)
			}
			seq++
			q.Push(stamped(at, seq))
			ref.Push(stamped(at, seq))
		}
		diffCheck(t, &q, &ref)
		total.PushActive += q.stats.PushActive
		total.PushRing += q.stats.PushRing
		total.PushBlock += q.stats.PushBlock
		total.PushFar += q.stats.PushFar
	}
	for _, c := range []struct {
		name string
		n    uint64
	}{{"active", total.PushActive}, {"ring", total.PushRing}, {"block", total.PushBlock}, {"far", total.PushFar}} {
		if c.n < 1000 {
			t.Errorf("only %d pushes went to the %s tier", c.n, c.name)
		}
	}
	if jumps < 100 {
		t.Errorf("the clock jumped across empty blocks only %d times", jumps)
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
	}{{"active", st.PushActive, 34}, {"ring", st.PushRing, 46}, {"block", st.PushBlock, 20}} {
		if pct := 100 * float64(c.n) / float64(seq); pct < c.target-5 || pct > c.target+5 {
			t.Errorf("%s pushes are %.1f %% of the mix, want %v +- 5", c.name, pct, c.target)
		}
	}
}

// firingLog reschedules itself a regimeMix delay each time it fires and logs
// every firing's (time, token).
type firingLog struct {
	k         *Kernel
	rng       *rand.Rand
	remaining int
	fired     []event
}

func (l *firingLog) HandleEvent(token uint64) {
	l.fired = append(l.fired, event{at: l.k.Now(), token: token})
	if l.remaining > 0 {
		l.remaining--
		l.k.CallAfter(regimeMix(l.rng), l, token)
	}
}

// runFiringLog runs 200 self-rescheduling timers for 20,000 firings on k.
func runFiringLog(t *testing.T, k *Kernel, budget Budget) (*firingLog, error) {
	t.Helper()
	l := &firingLog{k: k, rng: rand.New(rand.NewSource(9)), remaining: 20000}
	for i := uint64(0); i < 200; i++ {
		k.CallAfter(regimeMix(l.rng), l, i)
	}
	k.SetBudget(budget)
	return l, k.Run()
}

// TestKernelSlabsRecycled: a kernel built on a finished kernel's slabs
// fires the same events in the same order as a fresh one and peaks at the
// same depth, and a kernel stopped with events still queued hands nothing
// back.
func TestKernelSlabsRecycled(t *testing.T) {
	if _, ok := NewKernel().TakeSlabs(); ok {
		t.Error("a kernel that never ran handed over its slabs")
	}
	fresh := NewKernel()
	want, err := runFiringLog(t, fresh, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	slabs, ok := fresh.TakeSlabs()
	if !ok || cap(slabs.slab) == 0 || cap(slabs.active) == 0 || cap(slabs.far) == 0 {
		t.Fatalf("a drained kernel handed over %v slabs (slab %d, active %d, far %d)",
			ok, cap(slabs.slab), cap(slabs.active), cap(slabs.far))
	}
	for round := 0; round < 3; round++ {
		k := NewKernelWith(slabs)
		got, err := runFiringLog(t, k, Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.fired) != len(want.fired) {
			t.Fatalf("round %d: %d firings on recycled slabs, %d on fresh ones", round, len(got.fired), len(want.fired))
		}
		for i := range want.fired {
			if got.fired[i] != want.fired[i] {
				t.Fatalf("round %d: firing %d is %+v on recycled slabs, %+v on fresh ones", round, i, got.fired[i], want.fired[i])
			}
		}
		if g, w := k.QueueStats(), fresh.QueueStats(); g != w {
			t.Fatalf("round %d: queue stats %+v on recycled slabs, %+v on fresh ones", round, g, w)
		}
		if slabs, ok = k.TakeSlabs(); !ok {
			t.Fatalf("round %d: a drained kernel kept its slabs", round)
		}
	}
	killed := NewKernelWith(slabs)
	if _, err := runFiringLog(t, killed, Budget{MaxEvents: 5000}); err == nil {
		t.Fatal("the event budget did not stop the run")
	}
	if _, ok := killed.TakeSlabs(); ok {
		t.Error("a kernel stopped with events queued handed over its slabs")
	}
}

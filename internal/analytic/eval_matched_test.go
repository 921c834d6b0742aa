package analytic

import (
	"math/rand"
	"testing"

	"twolayer/internal/sim"
)

// flatQueue is the matched replay's previous wake queue, kept as the oracle
// for wakeTree: one (time, op) slot per rank, timeInf when parked, and a
// cached minimum that a consume recomputes by rescanning every slot.
type flatQueue struct {
	wake              []sim.Time
	op                []int32
	minT              sim.Time
	minOp, minRank    int32
	earlierViolations int
}

func newFlatQueue(procs int) *flatQueue {
	q := &flatQueue{wake: make([]sim.Time, procs), op: make([]int32, procs)}
	for r := range q.wake {
		q.wake[r] = timeInf
	}
	q.minT, q.minOp, q.minRank = timeInf, 0, -1
	return q
}

// schedule is the old Eval.wake. It also counts calls that would move a
// wakeup later or leave it in place, which the queue contract forbids.
func (q *flatQueue) schedule(r int32, t sim.Time, op int32) {
	if cur := q.wake[r]; !(t < cur || (t == cur && op < q.op[r])) {
		q.earlierViolations++
	}
	q.wake[r], q.op[r] = t, op
	if t < q.minT || (t == q.minT && op < q.minOp) {
		q.minT, q.minOp, q.minRank = t, op, r
	}
}

// rescanMin is the old Eval.rescanMin.
func (q *flatQueue) rescanMin() {
	minT, minOp, minRank := timeInf, int32(0), int32(-1)
	for r, w := range q.wake {
		if w > minT || w == timeInf {
			continue
		}
		if w < minT || q.op[r] < minOp {
			minT, minOp, minRank = w, q.op[r], int32(r)
		}
	}
	q.minT, q.minOp, q.minRank = minT, minOp, minRank
}

func (q *flatQueue) consume(r int32) {
	q.wake[r] = timeInf
	q.rescanMin()
}

// queuePair drives the winner tree and the flat oracle through the same
// calls and reports the first disagreement.
type queuePair struct {
	tree    wakeTree
	flat    *flatQueue
	procs   int
	rng     *rand.Rand
	used    map[int32]bool // op indices handed out so far
	maxTime sim.Time
}

func newQueuePair(procs int, seed int64, maxTime sim.Time) *queuePair {
	qp := &queuePair{
		flat: newFlatQueue(procs), procs: procs, rng: rand.New(rand.NewSource(seed)),
		used: map[int32]bool{}, maxTime: maxTime,
	}
	qp.tree.init(procs)
	qp.tree.reset()
	return qp
}

// freshOp returns a random op index no earlier call used, so live keys
// never tie — as in the replay, where op indices are globally unique — and
// op order is unrelated to wake order.
func (qp *queuePair) freshOp() int32 {
	for {
		if op := qp.rng.Int31n(1 << 20); !qp.used[op] {
			qp.used[op] = true
			return op
		}
	}
}

// step applies one operation chosen by (kind, a, b): wake a parked rank,
// move a live rank's wakeup earlier, or consume the minimum. Times are drawn
// from a small range so equal times broken only by op index are common.
func (qp *queuePair) step(kind, a, b byte) {
	r := int32(int(a) % qp.procs)
	switch kind % 3 {
	case 0: // wake a parked rank
		if qp.tree.at(r) != timeInf {
			return
		}
		t := sim.Time(b) % qp.maxTime
		op := qp.freshOp()
		qp.tree.wake(r, t, op)
		qp.flat.schedule(r, t, op)
	case 1: // improve: strictly earlier time, or the same time and a smaller op
		cur := qp.tree.at(r)
		if cur == timeInf {
			return
		}
		var t sim.Time
		var op int32
		if b%2 == 0 {
			// Same time, an unused smaller op index.
			t, op = cur, qp.flat.op[r]-1-int32(b)%4
			if op < 0 || qp.used[op] {
				return
			}
			qp.used[op] = true
		} else {
			t, op = cur-1-sim.Time(b)%4, qp.freshOp()
			if t < 0 {
				return
			}
		}
		qp.tree.wake(r, t, op)
		qp.flat.schedule(r, t, op)
	default: // consume the minimum, as a dispatch does
		top := qp.tree.min().rank()
		if top < 0 {
			return
		}
		qp.tree.consume(top)
		qp.flat.consume(top)
	}
}

func (qp *queuePair) check(t testing.TB, step int) {
	t.Helper()
	k := qp.tree.min()
	if k.t() != qp.flat.minT || k.op() != qp.flat.minOp || k.rank() != qp.flat.minRank {
		t.Fatalf("P=%d step %d: tree minimum (%d, %d, %d), oracle (%d, %d, %d)",
			qp.procs, step, k.t(), k.op(), k.rank(), qp.flat.minT, qp.flat.minOp, qp.flat.minRank)
	}
	for r := 0; r < qp.procs; r++ {
		if got, want := qp.tree.at(int32(r)), qp.flat.wake[r]; got != want {
			t.Fatalf("P=%d step %d: rank %d wakes at %d in the tree, %d in the oracle", qp.procs, step, r, got, want)
		}
	}
	if qp.flat.earlierViolations != 0 {
		t.Fatalf("P=%d step %d: a wake moved a key later or left it in place", qp.procs, step)
	}
}

// wakeQueueSizes covers one rank, small and odd counts, and padded trees
// on both sides of the 32 ranks the Small and Paper grids use.
var wakeQueueSizes = []int{1, 2, 3, 9, 32, 33, 64}

// TestWakeTreeMatchesFlatScan drives random wake / improve / consume
// sequences through the winner tree and the flat-scan oracle and checks
// the same (minT, minOp, minRank), and the same per-rank wakeup, after every
// step — including every rank parked (minRank -1) and equal times broken
// only by op index.
func TestWakeTreeMatchesFlatScan(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, procs := range wakeQueueSizes {
		for round := 0; round < 20; round++ {
			qp := newQueuePair(procs, r.Int63(), sim.Time(1+r.Intn(16)))
			qp.check(t, -1)
			for step := 0; step < 2000; step++ {
				qp.step(byte(r.Intn(3)), byte(r.Intn(256)), byte(r.Intn(256)))
				qp.check(t, step)
			}
			// Drain: every consume must agree until all ranks are parked.
			for step := 0; qp.flat.minRank >= 0; step++ {
				qp.step(2, 0, 0)
				qp.check(t, 2000+step)
			}
			if qp.tree.min().rank() != -1 || qp.tree.min().t() != timeInf {
				t.Fatalf("P=%d: drained tree reports %+v", procs, qp.tree.min())
			}
		}
	}
}

// TestWakeRejectsLaterKey pins the queue's one contract: a wakeup only ever
// moves earlier. A later (or unchanged) key would leave stale minima above
// its leaf, so wake refuses it instead of corrupting the order. Every
// SolveMatched in the package's tests runs with this guard armed, so the
// replay itself is checked against the contract on every random graph.
func TestWakeRejectsLaterKey(t *testing.T) {
	for _, c := range []struct {
		name  string
		t     sim.Time
		op    int32
		panic bool
	}{
		{"earlier time", 9, 7, false},
		{"same time, smaller op", 10, 4, false},
		{"same key", 10, 5, true},
		{"same time, larger op", 10, 6, true},
		{"later time", 11, 0, true},
	} {
		var w wakeTree
		w.init(4)
		w.reset()
		w.wake(2, 10, 5)
		func() {
			defer func() {
				if got := recover() != nil; got != c.panic {
					t.Errorf("%s: panicked=%v, want %v", c.name, got, c.panic)
				}
			}()
			w.wake(2, c.t, c.op)
		}()
	}
}

// FuzzWakeQueue is TestWakeTreeMatchesFlatScan driven by the fuzzer: the
// first byte picks the rank count, the second the time range, and each
// following triple one queue operation.
func FuzzWakeQueue(f *testing.F) {
	f.Add([]byte{4, 3, 0, 1, 2, 0, 2, 5, 2, 0, 0, 1, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0, 0})
	f.Add([]byte{6, 200, 0, 63, 9, 0, 62, 9, 1, 63, 2, 2, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		procs := wakeQueueSizes[int(data[0])%len(wakeQueueSizes)]
		qp := newQueuePair(procs, int64(data[0]), sim.Time(data[1])+1)
		qp.check(t, -1)
		for i := 2; i+2 < len(data); i += 3 {
			qp.step(data[i], data[i+1], data[i+2])
			qp.check(t, i)
		}
	})
}

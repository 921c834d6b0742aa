package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v", got)
	}
	if got := (3300 * Microsecond).Milliseconds(); got != 3.3 {
		t.Errorf("Milliseconds() = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{20 * Microsecond, "20.000us"},
		{3300 * Microsecond, "3.300ms"},
		{9100 * Millisecond, "9.100s"},
		{-Second, "-1.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// fmtString is String as it was written with fmt, the oracle for the
// strconv form.
func fmtString(t Time) string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%s", fmtString(-t))
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// TestTimeStringMatchesFmt: String and Append give fmt's bytes at every
// unit boundary and on random times of every magnitude, both signs.
func TestTimeStringMatchesFmt(t *testing.T) {
	ts := []Time{0, 1, MaxTime, -MaxTime}
	for _, u := range []Time{Microsecond, Millisecond, Second} {
		ts = append(ts, u-1, u, u+1, u*999, u*1000-1)
	}
	rng := rand.New(rand.NewSource(1))
	for range 20000 {
		ts = append(ts, Time(rng.Int63()>>rng.Intn(63)))
	}
	for _, x := range ts {
		for _, v := range []Time{x, -x} {
			want := fmtString(v)
			if got := v.String(); got != want {
				t.Fatalf("(%d).String() = %q, want %q", int64(v), got, want)
			}
			if got := string(v.Append([]byte("x="))); got != "x="+want {
				t.Fatalf("(%d).Append = %q, want %q", int64(v), got, "x="+want)
			}
		}
	}
}

func TestTransmissionTime(t *testing.T) {
	// 50 MByte/s: 1 MB takes 20 ms.
	got := TransmissionTime(1<<20, 50e6)
	want := Time(float64(1<<20) / 50e6 * float64(Second))
	if got != want {
		t.Errorf("TransmissionTime = %v, want %v", got, want)
	}
	if TransmissionTime(100, 0) != 0 {
		t.Errorf("infinite bandwidth should cost zero")
	}
	if TransmissionTime(0, 1e6) != 0 {
		t.Errorf("zero bytes should cost zero")
	}
}

// TestQueueOrdering drives the heap with a random schedule and checks that
// pops come out sorted by (time, insertion order).
func TestQueueOrdering(t *testing.T) {
	f := func(times []int16) bool {
		var q eventQueue
		type rec struct {
			at  Time
			seq int
		}
		var want []rec
		for i, v := range times {
			at := Time(int64(v) + 40000) // keep non-negative
			q.Push(event{at: at, seq: uint64(i)})
			want = append(want, rec{at, i})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		for i := range want {
			e := q.Pop()
			if e.at != want[i].at {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQueueTieBreakBySeq(t *testing.T) {
	var q eventQueue
	order := []int{}
	for i := 0; i < 10; i++ {
		i := i
		q.Push(event{at: 5, seq: uint64(i), h: callback(func() { order = append(order, i) })})
	}
	for q.Len() > 0 {
		ev := q.Pop()
		ev.h.HandleEvent(ev.token)
	}
	for i, v := range order {
		if i != v {
			t.Fatalf("tie-break order %v", order)
		}
	}
}

func TestQueuePeek(t *testing.T) {
	var q eventQueue
	if q.Peek() != MaxTime {
		t.Errorf("empty Peek = %v", q.Peek())
	}
	q.Push(event{at: 7})
	q.Push(event{at: 3})
	if q.Peek() != 3 {
		t.Errorf("Peek = %v, want 3", q.Peek())
	}
}

func TestKernelRunsEventsInOrder(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, d := range []Time{30, 10, 20} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[0] != 10 || fired[1] != 20 || fired[2] != 30 {
		t.Errorf("order %v", fired)
	}
	if k.Now() != 30 {
		t.Errorf("final time %v", k.Now())
	}
	if k.EventsFired() != 3 {
		t.Errorf("events fired %d", k.EventsFired())
	}
}

func TestKernelRunTwiceFails(t *testing.T) {
	k := NewKernel()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err == nil {
		t.Error("second Run should fail")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		k.Schedule(5, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestProcCompute: a process models computation by sleeping through it,
// and a non-positive duration costs nothing.
func TestProcCompute(t *testing.T) {
	k := NewKernel()
	var end Time
	p := k.Spawn("worker", func(p *Proc) {
		p.Sleep(100 * Microsecond)
		p.Sleep(0)
		p.Sleep(-5) // returns at once
		p.Sleep(900 * Microsecond)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Millisecond {
		t.Errorf("end = %v, want 1ms", end)
	}
	if p.FinishedAt() != Millisecond {
		t.Errorf("finished at %v", p.FinishedAt())
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(10)
				log = append(log, "a")
			}
		})
		k.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(10)
				log = append(log, "b")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("non-deterministic interleaving: %v vs %v", first, again)
			}
		}
	}
	// Equal compute times tie-break by spawn order: a then b each round.
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("interleaving %v, want %v", first, want)
		}
	}
}

func TestCondSignalWakes(t *testing.T) {
	k := NewKernel()
	var c Cond
	var wokenAt Time
	k.Spawn("waiter", func(p *Proc) {
		c.Wait(p, "test")
		wokenAt = p.Now()
	})
	k.Schedule(5*Millisecond, func() {
		if !c.Waiting() {
			t.Error("expected a waiter")
		}
		if !c.Signal() {
			t.Error("signal should wake someone")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wokenAt != 5*Millisecond {
		t.Errorf("woken at %v", wokenAt)
	}
	if c.Signal() {
		t.Error("signal with no waiter should report false")
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	var c Cond
	k.Spawn("stuck", func(p *Proc) {
		c.Wait(p, "never-signalled")
	})
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestSpawnMidRun(t *testing.T) {
	k := NewKernel()
	var childEnd Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(Millisecond)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(Millisecond)
			childEnd = c.Now()
		})
		p.Sleep(3 * Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childEnd != 2*Millisecond {
		t.Errorf("child end %v, want 2ms", childEnd)
	}
}

// TestManyProcsStress spawns a few hundred processes doing random compute
// steps and verifies the clock never runs backwards and everything drains.
func TestManyProcsStress(t *testing.T) {
	k := NewKernel()
	rng := rand.New(rand.NewSource(1))
	last := Time(0)
	for i := 0; i < 300; i++ {
		steps := rng.Intn(20) + 1
		durs := make([]Time, steps)
		for j := range durs {
			durs[j] = Time(rng.Intn(1000)) * Microsecond
		}
		k.Spawn("p", func(p *Proc) {
			for _, d := range durs {
				p.Sleep(d)
				if p.Now() < last {
					t.Error("clock ran backwards")
				}
				last = p.Now()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKernelEventThroughput(b *testing.B) {
	k := NewKernel()
	n := 0
	var post func()
	post = func() {
		n++
		if n < b.N {
			k.After(10, post)
		}
	}
	k.After(10, post)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkProcContextSwitch(b *testing.B) {
	k := NewKernel()
	k.Spawn("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestEventLimitWatchdog(t *testing.T) {
	k := NewKernel()
	k.SetBudget(Budget{MaxEvents: 10})
	var tick func()
	tick = func() { k.After(10, tick) } // never terminates
	k.After(10, tick)
	if err := k.Run(); err == nil {
		t.Fatal("expected event-limit error")
	}
}

package sim

import (
	"testing"
)

// recordingHandler appends its tokens to a shared log, tagged with an id.
type recordingHandler struct {
	id  int
	log *[]int
}

func (h *recordingHandler) HandleEvent(token uint64) {
	*h.log = append(*h.log, h.id*1000+int(token))
}

// TestScheduleCallOrdering pins the determinism contract of the handler
// dispatch: closures, handlers and process wake-ups scheduled for the same
// instant fire in scheduling order, exactly as if every one were a closure.
func TestScheduleCallOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	h := &recordingHandler{id: 1, log: &got}
	k.Spawn("driver", func(p *Proc) {
		p.Sleep(10) // move off time zero so same-time mixing is meaningful
		now := k.Now()
		k.Schedule(now+5, func() { got = append(got, 1) })
		k.ScheduleCall(now+5, h, 2)
		k.Schedule(now+5, func() { got = append(got, 3) })
		k.ScheduleCall(now+5, h, 4)
		k.CallAfter(5, h, 5)
		p.Sleep(20)
		got = append(got, 99)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1002, 3, 1004, 1005, 99}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestScheduleCallPastPanics matches Schedule's causality check.
func TestScheduleCallPastPanics(t *testing.T) {
	k := NewKernel()
	var h recordingHandler
	k.Spawn("p", func(p *Proc) {
		p.Sleep(10)
		defer func() {
			if recover() == nil {
				t.Error("ScheduleCall in the past did not panic")
			}
		}()
		k.ScheduleCall(k.Now()-1, &h, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCondHandleEvent checks that a Cond can be woken by a scheduled
// handler event — the closure-free form of a timer-driven signal.
func TestCondHandleEvent(t *testing.T) {
	k := NewKernel()
	var c Cond
	var wokeAt Time
	k.Spawn("sleeper", func(p *Proc) {
		k.ScheduleCall(25, &c, 0)
		c.Wait(p, "test")
		wokeAt = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 25 {
		t.Fatalf("woke at %v, want 25", wokeAt)
	}
}

// TestScheduleCallNoAlloc pins the handler path's allocation budget: a
// scheduled handler event must not allocate in steady state (the event
// queue's slabs amortize to zero).
func TestScheduleCallNoAlloc(t *testing.T) {
	run := func(n int) {
		k := NewKernel()
		var c Cond
		k.Spawn("p", func(p *Proc) {
			for i := 0; i < n; i++ {
				k.ScheduleCall(k.Now()+1, &c, uint64(i))
				c.Wait(p, "tick")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	const base, extra = 1 << 12, 1 << 12
	small := testing.AllocsPerRun(3, func() { run(base) })
	large := testing.AllocsPerRun(3, func() { run(base + extra) })
	perOp := (large - small) / extra
	if perOp > 0.01 {
		t.Fatalf("ScheduleCall steady state allocates %.4f allocs/op, want 0", perOp)
	}
}

// TestSwitchCounters pins what Switches and SelfWakes count. A lone
// process that computes is its own next wake-up every time: one switch to
// start it, then only self-wakes. Two processes computing in lockstep wake
// each other's Run loop: every block is a full switch.
func TestSwitchCounters(t *testing.T) {
	const n = 10
	body := func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(5)
		}
	}
	sw0, self0 := SwitchTotals()
	alone := NewKernel()
	alone.Spawn("a", body)
	if err := alone.Run(); err != nil {
		t.Fatal(err)
	}
	if alone.Switches() != 1 || alone.SelfWakes() != n {
		t.Errorf("lone process: %d switches, %d self-wakes; want 1, %d", alone.Switches(), alone.SelfWakes(), n)
	}
	pair := NewKernel()
	pair.Spawn("a", body)
	pair.Spawn("b", body)
	if err := pair.Run(); err != nil {
		t.Fatal(err)
	}
	if got := pair.Switches() + pair.SelfWakes(); got != 2+2*n {
		t.Errorf("two processes: %d switches + %d self-wakes, want %d wake-ups in all",
			pair.Switches(), pair.SelfWakes(), 2+2*n)
	}
	if pair.Switches() <= 2 {
		t.Errorf("two processes in lockstep made only %d switches", pair.Switches())
	}
	// The process-wide totals grew by at least these two runs (other tests
	// may be running kernels of their own).
	sw1, self1 := SwitchTotals()
	if sw1-sw0 < alone.Switches()+pair.Switches() || self1-self0 < alone.SelfWakes()+pair.SelfWakes() {
		t.Errorf("SwitchTotals grew by %d/%d, less than the two runs' %d/%d", sw1-sw0, self1-self0,
			alone.Switches()+pair.Switches(), alone.SelfWakes()+pair.SelfWakes())
	}
}

// TestMoveWaiter: a process parked on one Cond is handed to another from
// kernel context without running in between; only the second Cond's signal
// resumes it, and diagnostics report the new reason.
func TestMoveWaiter(t *testing.T) {
	k := NewKernel()
	var first, second Cond
	var wokeAt Time
	p := k.Spawn("sleeper", func(p *Proc) {
		first.Wait(p, "first")
		wokeAt = p.Now()
	})
	k.Schedule(10, func() {
		first.MoveWaiter(&second, reasonFunc("second"))
		if first.Waiting() || !second.Waiting() {
			t.Error("waiter did not move")
		}
		if got := p.reason(); got != "second" {
			t.Errorf("block reason %q after the move, want %q", got, "second")
		}
	})
	k.Schedule(20, func() {
		if first.Signal() {
			t.Error("the vacated Cond still woke someone")
		}
	})
	k.ScheduleCall(30, &second, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 30 {
		t.Errorf("woke at %v, want 30", wokeAt)
	}
	if k.Switches() != 1 || k.SelfWakes() != 1 {
		t.Errorf("%d switches, %d self-wakes; want the start and one wake-up, not one per Cond",
			k.Switches(), k.SelfWakes())
	}
}

type reasonFunc string

func (r reasonFunc) BlockReason() string { return string(r) }

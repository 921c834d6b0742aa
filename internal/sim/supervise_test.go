package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestEventBudgetKillsPingPong constructs the canonical livelock: two
// processes bouncing a signal back and forth forever. The run never
// deadlocks (someone is always runnable), so only the event budget can
// stop it — and the error must be a structured *RunError.
func TestEventBudgetKillsPingPong(t *testing.T) {
	k := NewKernel()
	var a, b Cond
	k.Spawn("ping", func(p *Proc) {
		for {
			k.After(Microsecond, func() { b.Signal() })
			a.Wait(p, "awaiting pong")
		}
	})
	k.Spawn("pong", func(p *Proc) {
		for {
			b.Wait(p, "awaiting ping")
			k.After(Microsecond, func() { a.Signal() })
		}
	})
	k.SetBudget(Budget{MaxEvents: 500})
	err := k.Run()
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %v", err)
	}
	if re.Kind != StopEventBudget {
		t.Fatalf("kind = %v, want %v", re.Kind, StopEventBudget)
	}
	if re.Events <= 500-10 || re.Events > 502 {
		t.Errorf("events = %d, want just past the 500 budget", re.Events)
	}
	rep := re.Report()
	for _, want := range []string{"event-budget", "ping", "pong", "events fired"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestTimeBudget stops a run whose virtual clock runs away.
func TestTimeBudget(t *testing.T) {
	k := NewKernel()
	k.Spawn("slow", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(Second)
		}
	})
	k.SetBudget(Budget{MaxVirtualTime: 5 * Second})
	err := k.Run()
	var re *RunError
	if !errors.As(err, &re) || re.Kind != StopTimeBudget {
		t.Fatalf("want time-budget RunError, got %v", err)
	}
	if re.At <= 5*Second || re.At > 7*Second {
		t.Errorf("stopped at %v, want just past 5s", re.At)
	}
}

// TestProgressWatchdogKillsTimerStorm: a self-rescheduling closure with
// every process blocked is exactly the retransmit-storm shape; the
// watchdog must kill it even though the event budget is far away.
func TestProgressWatchdogKillsTimerStorm(t *testing.T) {
	k := NewKernel()
	var c Cond
	k.Spawn("waiter", func(p *Proc) { c.Wait(p, "never signalled") })
	var tick func()
	tick = func() { k.After(Millisecond, tick) }
	k.After(Millisecond, tick)
	k.SetBudget(Budget{ProgressWindow: 100, MaxEvents: 1 << 40})
	err := k.Run()
	var re *RunError
	if !errors.As(err, &re) || re.Kind != StopLivelock {
		t.Fatalf("want livelock RunError, got %v", err)
	}
	if re.SinceProgress <= 100 {
		t.Errorf("since-progress = %d, want > window", re.SinceProgress)
	}
	if !strings.Contains(re.Report(), "waiter: blocked (never signalled)") {
		t.Errorf("report should carry the blocked process:\n%s", re.Report())
	}
}

// TestProgressWatchdogSparesComputeLoop: a compute-bound process fires far
// more events than the window, but process wake-ups count as progress, so
// a legitimately long run is never mistaken for a livelock.
func TestProgressWatchdogSparesComputeLoop(t *testing.T) {
	k := NewKernel()
	k.Spawn("worker", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(Microsecond)
		}
	})
	k.SetBudget(Budget{ProgressWindow: 10})
	if err := k.Run(); err != nil {
		t.Fatalf("compute loop killed by watchdog: %v", err)
	}
}

// TestNoteProgressFeedsWatchdog: an event storm that explicitly reports
// progress stays alive until it stops reporting.
func TestNoteProgressFeedsWatchdog(t *testing.T) {
	k := NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 300 {
			k.NoteProgress() // healthy phase
		}
		if n < 1000 {
			k.After(Millisecond, tick)
		}
	}
	k.After(Millisecond, tick)
	k.SetBudget(Budget{ProgressWindow: 50})
	err := k.Run()
	var re *RunError
	if !errors.As(err, &re) || re.Kind != StopLivelock {
		t.Fatalf("want livelock after progress stops, got %v", err)
	}
	if n < 300 || n >= 1000 {
		t.Errorf("killed after %d ticks, want during the silent phase", n)
	}
}

// TestRunContextDeadline: an expired wall-clock context stops the run at
// an event boundary with a StopDeadline error that unwraps to the
// context's cause.
func TestRunContextDeadline(t *testing.T) {
	k := NewKernel()
	var tick func()
	tick = func() { k.After(Microsecond, tick) } // endless
	k.After(Microsecond, tick)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := k.RunContext(ctx)
	var re *RunError
	if !errors.As(err, &re) || re.Kind != StopDeadline {
		t.Fatalf("want deadline RunError, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err should unwrap to context.DeadlineExceeded, got %v", err)
	}
}

// TestRunContextPreCanceled: a context that is already dead stops the run
// before any event fires.
func TestRunContextPreCanceled(t *testing.T) {
	k := NewKernel()
	fired := false
	k.After(Millisecond, func() { fired = true })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := k.RunContext(ctx)
	var re *RunError
	if !errors.As(err, &re) || re.Kind != StopDeadline {
		t.Fatalf("want deadline RunError, got %v", err)
	}
	if fired {
		t.Error("event fired despite pre-canceled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err should unwrap to context.Canceled, got %v", err)
	}
}

// TestRunContextNilMatchesRun: a nil context must not change behaviour.
func TestRunContextNilMatchesRun(t *testing.T) {
	run := func(ctx context.Context, useCtx bool) (Time, uint64) {
		k := NewKernel()
		k.Spawn("w", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(Millisecond)
			}
		})
		var err error
		if useCtx {
			err = k.RunContext(ctx)
		} else {
			err = k.Run()
		}
		if err != nil {
			t.Fatal(err)
		}
		return k.Now(), k.EventsFired()
	}
	t1, e1 := run(nil, false)
	t2, e2 := run(nil, true)
	if t1 != t2 || e1 != e2 {
		t.Errorf("Run (%v,%d) != RunContext(nil) (%v,%d)", t1, e1, t2, e2)
	}
}

// TestDeadlockIsRunError: the historical deadlock detection now reports
// through the same structured type, including block reasons.
func TestDeadlockIsRunError(t *testing.T) {
	k := NewKernel()
	var c Cond
	k.Spawn("stuck", func(p *Proc) { c.Wait(p, "waiting for godot") })
	err := k.Run()
	var re *RunError
	if !errors.As(err, &re) || re.Kind != StopDeadlock {
		t.Fatalf("want deadlock RunError, got %v", err)
	}
	if !strings.Contains(err.Error(), "waiting for godot") {
		t.Errorf("deadlock error should carry the block reason: %v", err)
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Errorf("deadlock error should name the process: %v", err)
	}
}

// TestAddDiagnostic: registered subsystem dumps appear in the report, and
// are only invoked on abnormal termination.
func TestAddDiagnostic(t *testing.T) {
	k := NewKernel()
	calls := 0
	k.AddDiagnostic("my-subsystem", func() []string {
		calls++
		return []string{"depth=7"}
	})
	k.Spawn("ok", func(p *Proc) { p.Sleep(Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("diagnostic invoked %d times on a healthy run", calls)
	}

	k2 := NewKernel()
	k2.AddDiagnostic("my-subsystem", func() []string { return []string{"depth=7"} })
	var c Cond
	k2.Spawn("stuck", func(p *Proc) { c.Wait(p, "x") })
	err := k2.Run()
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want RunError, got %v", err)
	}
	rep := re.Report()
	if !strings.Contains(rep, "my-subsystem") || !strings.Contains(rep, "depth=7") {
		t.Errorf("report missing diagnostic section:\n%s", rep)
	}
}

// TestBudgetWithinLimitsIsInvisible: arming generous budgets must not
// change a run's outcome in any observable way.
func TestBudgetWithinLimitsIsInvisible(t *testing.T) {
	run := func(b Budget) (Time, uint64) {
		k := NewKernel()
		k.SetBudget(b)
		k.Spawn("w", func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Sleep(Millisecond)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now(), k.EventsFired()
	}
	t1, e1 := run(Budget{})
	t2, e2 := run(Budget{MaxEvents: 1 << 30, MaxVirtualTime: Time(1) << 50, ProgressWindow: 1 << 20})
	if t1 != t2 || e1 != e2 {
		t.Errorf("budgets changed a healthy run: (%v,%d) vs (%v,%d)", t1, e1, t2, e2)
	}
}

// TestBudgetsIdleAfterAllProcessesFinish: a budget bounds the processes'
// work, not what is left in the queue once every process has finished. A
// process ends at 1 ms and two callbacks fire at 20 s and 21 s; under each
// budget, all of which those callbacks exceed, the run completes.
func TestBudgetsIdleAfterAllProcessesFinish(t *testing.T) {
	for _, c := range []struct {
		name string
		b    Budget
	}{
		{"MaxVirtualTime", Budget{MaxVirtualTime: 10 * Second}},
		{"MaxEvents", Budget{MaxEvents: 3}},
		{"ProgressWindow", Budget{ProgressWindow: 1}},
	} {
		k := NewKernel()
		k.Spawn("early", func(p *Proc) {
			p.Sleep(Millisecond)
			k.NoteProgress()
		})
		fired := 0
		k.Schedule(20*Second, func() { fired++ })
		k.Schedule(21*Second, func() { fired++ })
		k.SetBudget(c.b)
		if err := k.Run(); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if fired != 2 || k.EventsFired() != 4 || k.Now() != 21*Second {
			t.Errorf("%s: %d callbacks, %d events, now %v; want 2, 4, 21s", c.name, fired, k.EventsFired(), k.Now())
		}
	}
}

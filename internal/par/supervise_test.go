package par

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

// TestWatchdogKillsRetransmitStorm is the supervision layer's reason to
// exist: under 100% wide-area loss with the retry cap effectively disabled,
// the go-back-N senders retransmit forever — events keep firing, virtual
// time keeps advancing, but no cumulative ack ever moves a window. The
// progress watchdog must kill the run and the diagnostic dump must carry
// the reliable-channel state.
func TestWatchdogKillsRetransmitStorm(t *testing.T) {
	opts := faultyOpts(faults.Params{DropRate: 1, Seed: 5})
	opts.Transport.MaxRetries = 1 << 30 // the retry cap must not save us
	opts.Budget = sim.Budget{ProgressWindow: 20_000}
	_, err := RunWith(relTopo(t), opts, pingPong(t, 50))
	var re *sim.RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *sim.RunError, got %v", err)
	}
	if re.Kind != sim.StopLivelock {
		t.Fatalf("kind = %v, want %v (err: %v)", re.Kind, sim.StopLivelock, err)
	}
	rep := re.Report()
	for _, want := range []string{"reliable-transport", "channel 0->4", "retries", "timeouts="} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestRetryCapStructuredError: under total loss with the default retry cap,
// the channel fails with a typed *TransportError (alongside the secondary
// deadlock), so sweep supervision can classify the cell as "retry-cap".
func TestRetryCapStructuredError(t *testing.T) {
	opts := faultyOpts(faults.Params{DropRate: 1, Seed: 5})
	opts.Transport.MaxRetries = 4
	_, err := RunWith(relTopo(t), opts, pingPong(t, 50))
	if err == nil {
		t.Fatal("run completed under 100% loss")
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("want *TransportError in %v", err)
	}
	if te.Src != 0 || te.Dst != 4 || te.Retries != 4 {
		t.Errorf("TransportError = %+v, want channel 0->4 with cap 4", te)
	}
}

// TestDeadlineStopsRun: a wall-clock context kills an otherwise endless
// storm, and the error unwraps to the context cause.
func TestDeadlineStopsRun(t *testing.T) {
	opts := faultyOpts(faults.Params{DropRate: 1, Seed: 5})
	opts.Transport.MaxRetries = 1 << 30
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := RunWithContext(ctx, relTopo(t), opts, pingPong(t, 50))
	var re *sim.RunError
	if !errors.As(err, &re) || re.Kind != sim.StopDeadline {
		t.Fatalf("want deadline RunError, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err should unwrap to DeadlineExceeded: %v", err)
	}
}

// TestBudgetsInvisibleOnHealthyRun: a faulted run that completes within
// generous budgets must be bit-identical to the same run without budgets.
func TestBudgetsInvisibleOnHealthyRun(t *testing.T) {
	base := faultyOpts(faults.Params{DropRate: 0.1, Seed: 9})
	r1, err := RunWith(relTopo(t), base, pingPong(t, 80))
	if err != nil {
		t.Fatal(err)
	}
	guarded := base
	guarded.Budget = sim.Budget{
		MaxEvents: 1 << 40, MaxVirtualTime: sim.Time(1) << 55, ProgressWindow: 1 << 24}
	r2, err := RunWithContext(context.Background(), relTopo(t), guarded, pingPong(t, 80))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Elapsed != r2.Elapsed || r1.Events != r2.Events || r1.Transport != r2.Transport {
		t.Errorf("budgets changed a healthy run:\n%+v\nvs\n%+v", r1, r2)
	}
}

// TestDeadlockDiagnosticsCarryMailboxes: an application-level deadlock
// (rank waits for a message nobody sends) renders mailbox state in the
// report.
func TestDeadlockDiagnosticsCarryMailboxes(t *testing.T) {
	job := func(e *Env) {
		if e.Rank() == 0 {
			e.Send(1, 1, nil, 64) // rank 1 never receives this
			e.RecvFrom(1, 99)     // and never answers
		}
	}
	_, err := RunWith(relTopo(t), Options{Params: network.DefaultParams()}, job)
	var re *sim.RunError
	if !errors.As(err, &re) || re.Kind != sim.StopDeadlock {
		t.Fatalf("want deadlock RunError, got %v", err)
	}
	rep := re.Report()
	for _, want := range []string{"mailboxes", "rank 1: 1 undelivered", "recv tag 99 from 1"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestBudgetKillNamesDeferredOps: a run stopped by a budget while a rank's
// outputs are still queued reports that rank as blocked on its own queue —
// how many ops are pending and what it will do once they have run.
func TestBudgetKillNamesDeferredOps(t *testing.T) {
	job := func(e *Env) {
		switch e.Rank() {
		case 0:
			for i := 0; i < 5; i++ {
				e.Send(4, 1, nil, 64) // 5 us of send overhead each
			}
			e.Compute(sim.Millisecond)
			e.RecvFrom(4, 9)
		case 4:
			e.RecvN(0, 1, 5, func(Msg) {})
			e.Send(0, 9, nil, 64)
		}
	}
	// The third send would start at 10 us: the first ran on the rank's
	// stack, the second as a continuation at 5 us, and the continuation at
	// 10 us is the event the budget refuses — three sends and the compute
	// stay queued.
	opts := Options{Params: network.DefaultParams(),
		Budget: sim.Budget{MaxVirtualTime: 7 * sim.Microsecond}}
	_, err := RunWith(relTopo(t), opts, job)
	var re *sim.RunError
	if !errors.As(err, &re) || re.Kind != sim.StopTimeBudget {
		t.Fatalf("want time-budget RunError, got %v", err)
	}
	if len(re.Procs) != 8 {
		t.Fatalf("%d processes in the snapshot, want 8", len(re.Procs))
	}
	for rank, want := range map[int]string{
		0: "4 deferred op(s) pending, then recv tag 9 from 4",
		4: "recv tag 1 from 0",
	} {
		p := re.Procs[rank]
		if p.State != "blocked" || p.Reason != want {
			t.Errorf("%s is %s (%q), want blocked (%q)", p.Name, p.State, p.Reason, want)
		}
	}
	if rep := re.Report(); !strings.Contains(rep, "rank0: blocked (4 deferred op(s) pending") {
		t.Errorf("report does not name rank 0's queue:\n%s", rep)
	}
}

// churnMachine is the machine of the budget and churn tests below: two
// clusters of five on a 14.2 ms, 4.5 MB/s wide area, where the reliable
// transport's base timeout (rtoBase) is 57.2 ms.
func churnMachine(spec string, adaptive bool) (*topology.Topology, Options) {
	return topology.MustUniform(2, 5), Options{Adaptive: adaptive,
		Params: network.DefaultParams().WithWAN(14200*sim.Microsecond, 4.5e6),
		Regime: regime.Params{Spec: spec, Seed: 7}}
}

// TestFinishedRunNotBudgetFailure: once every rank has finished, a timer
// left in the queue cannot fail the run. Here the last rank finishes at
// 457.827 ms and a retransmission timer fires at 11.27 s; under a 10 s
// virtual-time budget the run must still return the unbudgeted Result.
func TestFinishedRunNotBudgetFailure(t *testing.T) {
	topo, opts := churnMachine("diurnal:40ms:8+churn:60ms:15ms", false)
	want, err := RunWith(topo, opts, randomJob(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	if want.Elapsed != 457826698 || want.Events != 568 {
		t.Fatalf("unbudgeted run: %d ns, %d events; pinned 457826698 ns, 568 events", want.Elapsed, want.Events)
	}
	opts.Budget = sim.Budget{MaxVirtualTime: 10 * sim.Second}
	got, err := RunWith(topo, opts, randomJob(3, 10))
	if err != nil {
		t.Fatalf("a finished run failed its budget: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("budget changed the Result:\n%+v\n%+v", want, got)
	}
}

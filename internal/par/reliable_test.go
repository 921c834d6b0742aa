package par

import (
	"math/rand"
	"strings"
	"testing"

	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
)

// relTopo is two clusters of four: enough ranks for cross-cluster pairs and
// intra-cluster control traffic.
func relTopo(t *testing.T) *topology.Topology {
	t.Helper()
	return topology.MustUniform(2, 4)
}

// pingPong streams count tagged payloads 0 -> 4 (cross-cluster) and has the
// receiver check contents and order, then ack completion back.
func pingPong(t *testing.T, count int) Job {
	return func(e *Env) {
		const dataTag, doneTag = 1, 2
		switch e.Rank() {
		case 0:
			for i := 0; i < count; i++ {
				e.Send(4, dataTag, i, 1000)
			}
			if got := e.RecvFrom(4, doneTag).Data.(int); got != count {
				t.Errorf("receiver saw %d messages, want %d", got, count)
			}
		case 4:
			for i := 0; i < count; i++ {
				m := e.RecvFrom(0, dataTag)
				if m.Data.(int) != i {
					t.Errorf("message %d carried %v", i, m.Data)
				}
			}
			e.Send(0, doneTag, count, 16)
		}
	}
}

func faultyOpts(f faults.Params) Options {
	return Options{Params: network.DefaultParams(), Seed: 1, Faults: f}
}

func TestReliableUnderDrop(t *testing.T) {
	res, err := RunWith(relTopo(t), faultyOpts(faults.Params{DropRate: 0.2, Seed: 7}), pingPong(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Dropped == 0 {
		t.Error("20% drop rate injected nothing")
	}
	if res.Transport.Retransmits == 0 || res.Transport.Timeouts == 0 {
		t.Errorf("drops healed without retransmission: %+v", res.Transport)
	}
	if res.Transport.Acks == 0 {
		t.Error("no acks recorded")
	}
}

func TestReliableUnderDuplication(t *testing.T) {
	res, err := RunWith(relTopo(t), faultyOpts(faults.Params{DupRate: 0.3, Seed: 8}), pingPong(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Duplicated == 0 {
		t.Error("30% duplication injected nothing")
	}
	if res.Transport.Duplicates == 0 {
		t.Error("receiver never discarded a duplicate")
	}
}

func TestReliableUnderReordering(t *testing.T) {
	res, err := RunWith(relTopo(t),
		faultyOpts(faults.Params{ReorderJitter: 20 * sim.Millisecond, Seed: 9}),
		pingPong(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport.OutOfOrder == 0 {
		t.Error("20ms jitter never produced an out-of-order arrival")
	}
}

func TestReliableUnderOutage(t *testing.T) {
	res, err := RunWith(relTopo(t), faultyOpts(faults.Params{
		OutagePeriod: 50 * sim.Millisecond, OutageDuration: 10 * sim.Millisecond, Seed: 10,
	}), pingPong(t, 200))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.OutageDropped == 0 {
		t.Error("outages injected nothing over 200 messages")
	}
}

func TestReliableCombinedFaults(t *testing.T) {
	res, err := RunWith(relTopo(t), faultyOpts(faults.Params{
		DropRate: 0.1, DupRate: 0.1, ReorderJitter: 5 * sim.Millisecond,
		OutagePeriod: 100 * sim.Millisecond, OutageDuration: 20 * sim.Millisecond,
		Seed: 11,
	}), pingPong(t, 150))
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport.Retransmits == 0 {
		t.Errorf("combined faults healed for free: %+v", res.Transport)
	}
}

// TestRetryCapSurfacesError: with every wide-area message dropped, the
// channel must give up after MaxRetries rounds and report a run error that
// names the failing pair, rather than spinning forever.
func TestRetryCapSurfacesError(t *testing.T) {
	opts := faultyOpts(faults.Params{DropRate: 0.9999999, Seed: 12})
	opts.Transport.MaxRetries = 3
	_, err := RunWith(relTopo(t), opts, pingPong(t, 5))
	if err == nil {
		t.Fatal("total loss completed without error")
	}
	if !strings.Contains(err.Error(), "reliable channel 0->4 failed") {
		t.Errorf("error does not name the failed channel: %v", err)
	}
	if !strings.Contains(err.Error(), "after 3 retransmission rounds") {
		t.Errorf("error does not report the retry cap: %v", err)
	}
}

// TestWindowBlocksSender: a window of 2 with a slow WAN forces the sender to
// stall; the stream must still arrive complete and in order.
func TestWindowBlocksSender(t *testing.T) {
	opts := faultyOpts(faults.Params{DropRate: 0.3, Seed: 13})
	opts.Transport.Window = 2
	res, err := RunWith(relTopo(t), opts, pingPong(t, 60))
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport.Retransmits == 0 {
		t.Errorf("no retransmissions at 30%% loss: %+v", res.Transport)
	}
}

// TestTransportWithoutFaults: Transport.Enabled exercises the protocol on a
// clean network — everything delivered first try, no timeouts.
func TestTransportWithoutFaults(t *testing.T) {
	opts := Options{Params: network.DefaultParams(), Seed: 1}
	opts.Transport.Enabled = true
	res, err := RunWith(relTopo(t), opts, pingPong(t, 50))
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport.Timeouts != 0 || res.Transport.Retransmits != 0 {
		t.Errorf("clean network retransmitted: %+v", res.Transport)
	}
	if res.Transport.Acks == 0 {
		t.Error("reliable layer was not engaged")
	}
	if res.Faults != (network.FaultStats{}) {
		t.Errorf("faults injected without a plan: %+v", res.Faults)
	}
}

// TestCollectivesSurviveLoss: barrier and RPC traffic (the runtime's own
// protocol messages) also ride the reliable channel.
func TestCollectivesSurviveLoss(t *testing.T) {
	res, err := RunWith(relTopo(t), faultyOpts(faults.Params{DropRate: 0.25, Seed: 14}),
		func(e *Env) {
			for round := 0; round < 20; round++ {
				e.Barrier()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Dropped == 0 {
		t.Error("no drops across 20 barriers")
	}
}

// TestFaultyRunDeterministic: two identical faulty runs agree on every
// statistic, including virtual completion time.
func TestFaultyRunDeterministic(t *testing.T) {
	run := func() Result {
		res, err := RunWith(relTopo(t), faultyOpts(faults.Params{
			DropRate: 0.15, DupRate: 0.05, ReorderJitter: 2 * sim.Millisecond, Seed: 21,
		}), pingPong(t, 100))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed {
		t.Errorf("elapsed diverged: %v vs %v", a.Elapsed, b.Elapsed)
	}
	if a.Transport != b.Transport {
		t.Errorf("transport stats diverged: %+v vs %+v", a.Transport, b.Transport)
	}
	if a.Faults != b.Faults {
		t.Errorf("fault stats diverged: %+v vs %+v", a.Faults, b.Faults)
	}
	if a.WAN != b.WAN {
		t.Errorf("WAN stats diverged: %+v vs %+v", a.WAN, b.WAN)
	}
}

// TestZeroFaultsIdenticalToPlainRun: Options.Faults zero value must leave
// the run bit-identical to one that never heard of fault injection —
// same elapsed time, same event count, no transport traffic.
func TestZeroFaultsIdenticalToPlainRun(t *testing.T) {
	job := pingPong(t, 50)
	plain, err := Run(relTopo(t), network.DefaultParams(), 1, job)
	if err != nil {
		t.Fatal(err)
	}
	withZero, err := RunWith(relTopo(t), Options{Params: network.DefaultParams(), Seed: 1}, job)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Elapsed != withZero.Elapsed || plain.Events != withZero.Events {
		t.Errorf("zero-fault run diverged: %+v vs %+v", plain, withZero)
	}
	if withZero.Transport != (Result{}.Transport) {
		t.Errorf("transport counters on a fault-free run: %+v", withZero.Transport)
	}
}

// TestInvalidFaultsRejected: malformed fault parameters fail fast instead
// of panicking mid-run.
func TestInvalidFaultsRejected(t *testing.T) {
	_, err := RunWith(relTopo(t), faultyOpts(faults.Params{DropRate: 1.5}), pingPong(t, 1))
	if err == nil || !strings.Contains(err.Error(), "DropRate") {
		t.Errorf("invalid drop rate accepted: %v", err)
	}
}

// TestTraceUnderRetransmission: the communication matrix of a lossy run
// matches its fault-free twin — protocol overhead never double-counts.
func TestTraceUnderRetransmission(t *testing.T) {
	matrix := func(f faults.Params) ([][]int64, int64) {
		tr := trace.NewStream(relTopo(t).Procs())
		opts := Options{Params: network.DefaultParams(), Seed: 1, Faults: f, Trace: tr}
		res, err := RunWith(relTopo(t), opts, pingPong(t, 80))
		if err != nil {
			t.Fatal(err)
		}
		return tr.CommMatrix(), res.Transport.Retransmits + res.Transport.Acks
	}
	clean, cleanOverhead := matrix(faults.Params{})
	lossy, lossyOverhead := matrix(faults.Params{DropRate: 0.2, Seed: 30})
	if cleanOverhead != 0 {
		t.Errorf("clean run traced %d protocol messages", cleanOverhead)
	}
	if lossyOverhead == 0 {
		t.Error("lossy run traced no protocol messages")
	}
	for i := range clean {
		for j := range clean[i] {
			if clean[i][j] != lossy[i][j] {
				t.Errorf("matrix[%d][%d]: clean %d, lossy %d", i, j, clean[i][j], lossy[i][j])
			}
		}
	}
}

// TestBackoffSpreadDesynchronizes: once the exponential backoff shift caps,
// the retransmission cadence would be constant — and a constant cadence can
// phase-lock with a periodic link outage, every probe landing inside the
// blackout forever. The deterministic spread must therefore (a) differ
// between channels, so a fleet of stuck senders does not probe in unison,
// and (b) differ between consecutive rounds of one channel, so even a
// single sender samples different outage phases. Both are properties of
// rto() alone, probed here from inside a run so the senders are real.
func TestBackoffSpreadDesynchronizes(t *testing.T) {
	opts := Options{Params: network.DefaultParams(), Seed: 1}
	opts.Transport.Enabled = true
	checked := false
	_, err := RunWith(relTopo(t), opts, func(e *Env) {
		if e.Rank() != 0 {
			return
		}
		checked = true
		a, b := e.relFor(4), e.relFor(5)
		if r1, r2 := a.rto(), b.rto(); r1 != r2 {
			t.Errorf("unbacked-off channels disagree on the base timeout: %v vs %v", r1, r2)
		}
		// Drive both channels past the shift cap (10): same deterministic
		// base, so any difference below is the spread.
		a.retries, b.retries = 12, 12
		ra, rb := a.rto(), b.rto()
		if ra == rb {
			t.Error("channels 0->4 and 0->5 retry on the same capped cadence (fleet phase-lock)")
		}
		a.retries = 13
		if ra2 := a.rto(); ra2 == ra {
			t.Error("consecutive retry rounds share one cadence (periodic-outage phase-lock)")
		}
		// The spread is a bounded fraction of the capped timeout: with an
		// empty window the deterministic part is exactly rtoBase<<10, so the
		// spread keeps the result in [floor, 2*floor).
		if floor := e.rt.rel.rtoBase << 10; a.rto() < floor || a.rto() >= 2*floor {
			t.Errorf("spread out of bounds: rto %v for base %v", a.rto(), floor)
		}
		a.retries, b.retries = 0, 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("probe job never ran on rank 0")
	}
}

// TestBackoffEscapesPeriodicOutage: a blackout covering 60% of every period
// leaves a narrow repair window; the spread must walk the retry probes into
// it well inside the retry cap. (With a constant capped cadence this
// configuration can starve: the repeating probe schedule keeps missing the
// up-window it started out of phase with.)
func TestBackoffEscapesPeriodicOutage(t *testing.T) {
	res, err := RunWith(relTopo(t), faultyOpts(faults.Params{
		OutagePeriod: 50 * sim.Millisecond, OutageDuration: 30 * sim.Millisecond, Seed: 17,
	}), pingPong(t, 60))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.OutageDropped == 0 {
		t.Error("outages injected nothing")
	}
	if res.Transport.Timeouts == 0 {
		t.Error("no timeouts under a 60% blackout duty cycle")
	}
}

// TestAdaptiveChurnFinishes: under churn:60ms:15ms the up interval (45 ms)
// is shorter than rtoBase (57.2 ms). A churn hold spread over the whole
// rtoBase put re-armed timers into the next down window, over and over:
// the adaptive run hit a 200 s budget after 10,064 timeouts and 53
// retransmits, while the static run finishes at 2.056 s.
func TestAdaptiveChurnFinishes(t *testing.T) {
	topo, opts := churnMachine("churn:60ms:15ms", false)
	opts.Budget = sim.Budget{MaxVirtualTime: 200 * sim.Second}
	static, err := RunWith(topo, opts, randomJob(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	if static.Elapsed != 2056069969 {
		t.Errorf("static run finished at %d ns, pinned 2056069969", static.Elapsed)
	}
	opts.Adaptive = true
	res, err := RunWith(topo, opts, randomJob(3, 10))
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	if res.Transport.Retransmits == 0 {
		t.Error("adaptive run never retransmitted: churn dropped nothing")
	}
}

// TestAdaptiveChurnTable: seeded churn regimes — up intervals shorter and
// longer than the transport's base timeout, with and without a diurnal
// curve — on random machines: every adaptive program finishes under a
// generous budget.
func TestAdaptiveChurnTable(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	specs := []string{"churn:60ms:15ms", "churn:50ms:20ms", "churn:100ms:30ms",
		"churn:120ms:30ms", "diurnal:40ms:8+churn:60ms:15ms", "churn:80ms:50ms+rel"}
	for trial := 0; trial < 24; trial++ {
		topo := topology.MustUniform(rng.Intn(3)+2, rng.Intn(4)+2)
		opts := Options{Seed: 42, Adaptive: true,
			Params: network.DefaultParams().WithWAN(sim.Time(rng.Intn(30000)+2000)*sim.Microsecond,
				float64(rng.Intn(90)+10)*1e5),
			Regime: regime.Params{Spec: specs[trial%len(specs)], Seed: rng.Int63()},
			Budget: sim.Budget{MaxVirtualTime: 1000 * sim.Second}}
		jobSeed, rounds := rng.Int63(), rng.Intn(12)+4
		if _, err := RunWith(topo, opts, randomJob(jobSeed, rounds)); err != nil {
			t.Errorf("trial %d: %v on %v, wide area %v / %.0f B/s: %v", trial, opts.Regime.Spec, topo,
				opts.Params.WANLatency, opts.Params.WANBandwidth, err)
		}
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"twolayer/internal/apps"
	"twolayer/internal/par"
	"twolayer/internal/sim"
)

// TestForEachWeightedLabelsErrors pins the error-context satellite: a
// failing shard's joined error must name the cell, not just the cause.
func TestForEachWeightedLabelsErrors(t *testing.T) {
	boom := errors.New("simulated blow-up")
	err := forEachWeighted(6, nil,
		func(i int) string { return fmt.Sprintf("Water (optimized) lat=30ms cell-%d", i) },
		func(i int) error {
			if i == 3 {
				return boom
			}
			return nil
		})
	if err == nil {
		t.Fatal("error lost")
	}
	if !errors.Is(err, boom) {
		t.Errorf("joined error no longer wraps the cause: %v", err)
	}
	if !strings.Contains(err.Error(), "Water (optimized) lat=30ms cell-3") {
		t.Errorf("error does not name the failing cell: %v", err)
	}
}

// TestClassifyCellError pins the classification table: transport failures
// and supervised kills are per-cell, anything else aborts the sweep.
func TestClassifyCellError(t *testing.T) {
	cases := []struct {
		err  error
		kind string
		cell bool
	}{
		{&par.TransportError{Src: 0, Dst: 4, Retries: 24}, "retry-cap", true},
		{&sim.RunError{Kind: sim.StopDeadlock}, "deadlock", true},
		{&sim.RunError{Kind: sim.StopLivelock}, "livelock", true},
		{&sim.RunError{Kind: sim.StopEventBudget}, "event-budget", true},
		{&sim.RunError{Kind: sim.StopTimeBudget}, "time-budget", true},
		{&sim.RunError{Kind: sim.StopDeadline}, "deadline", true},
		// The transport error wins over the secondary deadlock it causes.
		{errors.Join(&par.TransportError{}, &sim.RunError{Kind: sim.StopDeadlock}), "retry-cap", true},
		{fmt.Errorf("core: wrapped: %w", &sim.RunError{Kind: sim.StopLivelock}), "livelock", true},
		{errors.New("disk on fire"), "", false},
	}
	for i, tc := range cases {
		kind, cell := classifyCellError(tc.err)
		if kind != tc.kind || cell != tc.cell {
			t.Errorf("case %d (%v): got (%q,%v), want (%q,%v)",
				i, tc.err, kind, cell, tc.kind, tc.cell)
		}
	}
}

// TestChaosFailedCells: under a totally hostile WAN (100% loss) the
// reliable channels exhaust their retry cap; with a policy attached the
// study must keep going, record those cells as FAILED(retry-cap) rows with
// empty metrics, and keep the healthy cells bit-identical.
func TestChaosFailedCells(t *testing.T) {
	pol := &RunPolicy{}
	cfg := ChaosConfig{
		Scale:   apps.Tiny,
		Params:  chaosParams(),
		Drops:   []float64{0, 1},
		Outages: []sim.Time{0},
		Cache:   NewRunCache(),
		Policy:  pol,
	}
	points, err := ChaosStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var failed, healthy int
	for _, p := range points {
		switch {
		case p.DropRate == 1:
			failed++
			if p.Failed != "retry-cap" {
				t.Errorf("%s drop=1: Failed=%q, want retry-cap", p.App, p.Failed)
			}
			if p.Elapsed != 0 || p.RelSpeedupPct != 0 {
				t.Errorf("%s drop=1: failed cell carries metrics: %+v", p.App, p)
			}
		default:
			healthy++
			if p.Failed != "" {
				t.Errorf("%s drop=0 marked FAILED(%s)", p.App, p.Failed)
			}
			if p.Elapsed <= 0 {
				t.Errorf("%s drop=0: no elapsed time", p.App)
			}
		}
	}
	if failed == 0 || healthy == 0 {
		t.Fatalf("grid did not cover both outcomes: %d failed, %d healthy", failed, healthy)
	}
	if got := len(pol.Failures()); got != failed {
		t.Errorf("policy recorded %d failures, grid has %d", got, failed)
	}
	for _, f := range pol.Failures() {
		if f.Kind != "retry-cap" {
			t.Errorf("failure %+v: want kind retry-cap", f)
		}
		var te *par.TransportError
		if !errors.As(f.Err, &te) {
			t.Errorf("failure %s does not carry the transport error: %v", f.Label, f.Err)
		}
		if !strings.Contains(f.Label, "drop=1") {
			t.Errorf("failure label %q does not identify the cell", f.Label)
		}
	}
	var b strings.Builder
	WriteChaosCSV(&b, points)
	csv := b.String()
	if !strings.Contains(csv, "FAILED(retry-cap)") {
		t.Errorf("CSV has no FAILED rows:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "app,variant,drop_rate,outage_ms,status,") {
		t.Errorf("CSV header misses the status column: %q", csv[:min(len(csv), 80)])
	}
	// The headline summary must ignore killed cells — a kill is not "fell
	// below the criterion at this fault level".
	for _, r := range ChaosThresholds(points) {
		if r.DropThreshold == 1 {
			t.Errorf("%s: FAILED cell leaked into the threshold summary", r.App)
		}
	}
}

// TestChaosDeadlineFailsGracefully: an already-expired sweep deadline must
// not hang or abort the study — every cell is recorded as FAILED(deadline)
// and the error unwraps to the context cause.
func TestChaosDeadlineFailsGracefully(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the deadline has already passed
	pol := &RunPolicy{Ctx: ctx}
	points, err := ChaosStudy(ChaosConfig{
		Scale:   apps.Tiny,
		Params:  chaosParams(),
		Drops:   []float64{0.01},
		Outages: []sim.Time{0},
		Cache:   NewRunCache(),
		Policy:  pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Failed != "deadline" {
			t.Errorf("%s: Failed=%q, want deadline", p.App, p.Failed)
		}
	}
	fails := pol.Failures()
	if len(fails) != len(points) {
		t.Fatalf("%d failures for %d cells", len(fails), len(points))
	}
	for _, f := range fails {
		if !errors.Is(f.Err, context.Canceled) {
			t.Errorf("%s: error does not unwrap to the context cause: %v", f.Label, f.Err)
		}
	}
}

// TestFigure3FailedCells: FAILED cells surface in the panel grid and its
// rendering; healthy panels keep a nil Failed grid (the historical JSON
// shape).
func TestFigure3FailedCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	panels, err := Figure3(apps.Tiny, Figure3Options{
		Apps:       []string{"TSP"},
		Latencies:  []sim.Time{500 * sim.Microsecond},
		Bandwidths: []float64{6.3e6},
		Cache:      NewRunCache(),
		Policy:     &RunPolicy{Ctx: ctx},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range panels {
		if p.FailedAt(0, 0) != "deadline" {
			t.Errorf("%s: FailedAt=%q, want deadline", p.App, p.FailedAt(0, 0))
		}
		if r := RenderFigure3Panel(p); !strings.Contains(r, "FAILED(deadline)") {
			t.Errorf("render misses the FAILED marker:\n%s", r)
		}
	}
	healthy, err := Figure3(apps.Tiny, Figure3Options{
		Apps:       []string{"TSP"},
		Latencies:  []sim.Time{500 * sim.Microsecond},
		Bandwidths: []float64{6.3e6},
		Cache:      NewRunCache(),
		Policy:     &RunPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range healthy {
		if p.Failed != nil {
			t.Errorf("%s: healthy panel kept a Failed grid", p.App)
		}
	}
}

// TestPolicyBudgetsInvisible: a sweep that completes within generous
// budgets must produce results identical to an unsupervised one (budgets
// are pure observation, and deliberately not part of the cache key).
func TestPolicyBudgetsInvisible(t *testing.T) {
	run := func(pol *RunPolicy) []ChaosPoint {
		points, err := ChaosStudy(ChaosConfig{
			Scale:   apps.Tiny,
			Params:  chaosParams(),
			Drops:   []float64{0.02},
			Outages: []sim.Time{0},
			Cache:   NewRunCache(),
			Policy:  pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	plain := run(nil)
	guarded := run(&RunPolicy{
		Budget: sim.Budget{MaxEvents: 1 << 40, ProgressWindow: 1 << 30},
		Ctx:    context.Background(),
	})
	if len(plain) != len(guarded) {
		t.Fatalf("point counts differ: %d vs %d", len(plain), len(guarded))
	}
	for i := range plain {
		if plain[i] != guarded[i] {
			t.Errorf("point %d diverged under budgets:\n%+v\nvs\n%+v", i, plain[i], guarded[i])
		}
	}
}

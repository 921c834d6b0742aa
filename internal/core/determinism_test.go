package core

import (
	"errors"
	"reflect"
	"testing"

	"twolayer/internal/apps"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

// The golden table itself lives in golden.go (exported, so the persistent
// run cache can fingerprint it); these tests enforce it.

func goldenExperiment(t *testing.T, g GoldenRun) Experiment {
	t.Helper()
	app, err := AppByName(g.App)
	if err != nil {
		t.Fatal(err)
	}
	return Experiment{
		App: app, Scale: apps.Tiny, Optimized: g.Optimized,
		Topo:   topology.DAS(),
		Params: network.DefaultParams().WithWAN(3300*sim.Microsecond, 0.95e6),
	}
}

// resultsEqual compares every deterministic field of two Results.
func resultsEqual(t *testing.T, label string, a, b par.Result) {
	t.Helper()
	if a.Elapsed != b.Elapsed {
		t.Errorf("%s: Elapsed %d vs %d", label, a.Elapsed, b.Elapsed)
	}
	if a.Events != b.Events {
		t.Errorf("%s: Events %d vs %d", label, a.Events, b.Events)
	}
	if a.WAN != b.WAN {
		t.Errorf("%s: WAN %+v vs %+v", label, a.WAN, b.WAN)
	}
	if a.Intra != b.Intra {
		t.Errorf("%s: Intra %+v vs %+v", label, a.Intra, b.Intra)
	}
	if a.Transport != b.Transport {
		t.Errorf("%s: Transport %+v vs %+v", label, a.Transport, b.Transport)
	}
	if a.Faults != b.Faults {
		t.Errorf("%s: Faults %+v vs %+v", label, a.Faults, b.Faults)
	}
	if !reflect.DeepEqual(a.ClusterWANOut, b.ClusterWANOut) {
		t.Errorf("%s: ClusterWANOut %+v vs %+v", label, a.ClusterWANOut, b.ClusterWANOut)
	}
}

// TestGoldenDeterminism compares every application variant against the
// captured pre-rewrite values.
func TestGoldenDeterminism(t *testing.T) {
	for _, g := range GoldenRuns {
		g := g
		name := g.App + "/unopt"
		if g.Optimized {
			name = g.App + "/opt"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := goldenExperiment(t, g).Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed != g.Elapsed {
				t.Errorf("Elapsed = %d, golden %d", res.Elapsed, g.Elapsed)
			}
			if res.Events != g.Events {
				t.Errorf("Events = %d, golden %d", res.Events, g.Events)
			}
			if res.WAN.Messages != g.WANMsgs {
				t.Errorf("WAN.Messages = %d, golden %d", res.WAN.Messages, g.WANMsgs)
			}
			if res.WAN.Bytes != g.WANBytes {
				t.Errorf("WAN.Bytes = %d, golden %d", res.WAN.Bytes, g.WANBytes)
			}
		})
	}
}

// TestGoldensAfterBudgetKill: every golden variant is first run under a
// virtual-time budget that stops it halfway, with events still queued, and
// then run whole. The whole run grows into the slabs the runs before it
// parked, and must reproduce its golden bit for bit.
func TestGoldensAfterBudgetKill(t *testing.T) {
	for _, g := range GoldenRuns {
		x := goldenExperiment(t, g)
		killed := x
		killed.Budget = sim.Budget{MaxVirtualTime: g.Elapsed / 2}
		_, err := killed.Run()
		var re *sim.RunError
		if !errors.As(err, &re) || re.Kind != sim.StopTimeBudget {
			t.Fatalf("%s: want a time-budget RunError halfway, got %v", g.App, err)
		}
		res, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := (GoldenRun{g.App, g.Optimized, res.Elapsed, res.Events, res.WAN.Messages, res.WAN.Bytes}); got != g {
			t.Errorf("after a budget kill: %+v, golden %+v", got, g)
		}
	}
}

// TestSmallScaleRepeatable is the Small-scale half of the repeatability
// contract: larger matrices, more iterations, and different message sizes
// than the Tiny goldens, so kernel rewrites that only break at size show
// up here. CI runs it (and the Tiny goldens) under -race.
func TestSmallScaleRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("Small-scale repeatability is slow; run without -short")
	}
	for _, g := range GoldenRuns {
		g := g
		name := g.App + "/unopt"
		if g.Optimized {
			name = g.App + "/opt"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			x := goldenExperiment(t, g)
			x.Scale = apps.Small
			a, err := x.Run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := x.Run()
			if err != nil {
				t.Fatal(err)
			}
			if a.Elapsed != b.Elapsed || a.Events != b.Events || a.WAN != b.WAN {
				t.Errorf("two Small runs differ: (%d ns, %d ev, %+v) vs (%d ns, %d ev, %+v)",
					a.Elapsed, a.Events, a.WAN, b.Elapsed, b.Events, b.WAN)
			}
		})
	}
}

// TestRunTwiceIdentical runs every variant twice and requires bit-identical
// results — the repeatability half of the determinism contract (the golden
// test pins the values, this one would catch e.g. map-iteration or
// scheduling nondeterminism even after an intentional golden update).
func TestRunTwiceIdentical(t *testing.T) {
	for _, g := range GoldenRuns {
		g := g
		name := g.App + "/unopt"
		if g.Optimized {
			name = g.App + "/opt"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			x := goldenExperiment(t, g)
			a, err := x.Run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := x.Run()
			if err != nil {
				t.Fatal(err)
			}
			if a.Elapsed != b.Elapsed || a.Events != b.Events || a.WAN != b.WAN {
				t.Errorf("two runs differ: (%d ns, %d ev, %+v) vs (%d ns, %d ev, %+v)",
					a.Elapsed, a.Events, a.WAN, b.Elapsed, b.Events, b.WAN)
			}
		})
	}
}

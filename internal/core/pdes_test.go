package core

import (
	"fmt"
	"reflect"
	"testing"

	"twolayer/internal/apps"
	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

// The cluster-parallel engine's contract is bit-identical results at any
// worker count. These tests enforce it against the sequential kernel the
// same way the ladder queue was tested against the heap: deep Result
// equality across engines, over every golden variant and over fault-injected
// configurations. CI additionally runs TestGoldenDeterminismParallel under
// -race (the name rides the golden -race regex), which is what proves the
// worker pool shares no unsynchronized state.

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
	if !reflect.DeepEqual(a.PerProcFinish, b.PerProcFinish) {
		t.Errorf("%s: PerProcFinish differs", label)
	}
	if !reflect.DeepEqual(a.PerProcCompute, b.PerProcCompute) {
		t.Errorf("%s: PerProcCompute differs", label)
	}
	if !reflect.DeepEqual(a.ClusterWANOut, b.ClusterWANOut) {
		t.Errorf("%s: ClusterWANOut %+v vs %+v", label, a.ClusterWANOut, b.ClusterWANOut)
	}
}

// TestGoldenDeterminismParallel runs every golden variant sequentially and
// at workers 1, 2 and 4, and requires deep Result equality plus the pinned
// golden values. Workers=1 exercises the full windowed engine (per-cluster
// kernels, barrier exchange) without pool concurrency, isolating protocol
// bugs from data races.
func TestGoldenDeterminismParallel(t *testing.T) {
	for _, g := range GoldenRuns {
		g := g
		name := g.App + "/unopt"
		if g.Optimized {
			name = g.App + "/opt"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			x := goldenExperiment(t, g)
			x.Workers = -1
			seq, err := x.Run()
			if err != nil {
				t.Fatal(err)
			}
			if seq.Elapsed != g.Elapsed || seq.Events != g.Events {
				t.Fatalf("sequential run off golden: %d ns / %d events, want %d / %d",
					seq.Elapsed, seq.Events, g.Elapsed, g.Events)
			}
			for _, w := range []int{1, 2, 4} {
				x.Workers = w
				res, err := x.Run()
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				resultsEqual(t, name+"/workers="+string(rune('0'+w)), seq, res)
			}
		})
	}
}

// TestParallelFaultedDifferential extends the differential contract to the
// harder regime: fault injection with drops, duplicates, reordering jitter
// and outages, where the reliable transport's timers, retransmissions and
// acks all cross the window barrier.
func TestParallelFaultedDifferential(t *testing.T) {
	configs := []struct {
		name string
		f    faults.Params
	}{
		{"drop1pct", faults.Params{DropRate: 0.01, Seed: 7}},
		{"lossy", faults.Params{DropRate: 0.05, DupRate: 0.02,
			ReorderJitter: 2 * sim.Millisecond, Seed: 11}},
		{"outage", faults.Params{DropRate: 0.01, OutagePeriod: 40 * sim.Millisecond,
			OutageDuration: 5 * sim.Millisecond, Seed: 3}},
	}
	names := []string{"FFT", "ASP", "TSP"}
	for _, cfg := range configs {
		for _, appName := range names {
			cfg, appName := cfg, appName
			t.Run(cfg.name+"/"+appName, func(t *testing.T) {
				t.Parallel()
				app, err := AppByName(appName)
				if err != nil {
					t.Fatal(err)
				}
				x := Experiment{
					App: app, Scale: apps.Tiny, Optimized: true,
					Topo:   topology.DAS(),
					Params: network.DefaultParams().WithWAN(3300*sim.Microsecond, 0.95e6),
					Faults: cfg.f,
				}
				x.Workers = -1
				seq, err := x.Run()
				if err != nil {
					t.Fatal(err)
				}
				x.Workers = 4
				res, err := x.Run()
				if err != nil {
					t.Fatalf("workers=4: %v", err)
				}
				resultsEqual(t, cfg.name+"/"+appName, seq, res)
			})
		}
	}
}

// TestParallelSharedPayloadDifferential is the differential for what the
// golden point is too small to catch under -race: a message payload shared
// by reference between logical processes. ASP's owner keeps relaxing the
// row it just broadcast, so the broadcast must carry a snapshot; at a slow
// wide-area setting receivers lag far enough behind for the race detector
// to see the overlap if it does not.
func TestParallelSharedPayloadDifferential(t *testing.T) {
	app, err := AppByName("ASP")
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []bool{false, true} {
		x := Experiment{
			App: app, Scale: apps.Tiny, Optimized: opt, Verify: true,
			Topo:   topology.DAS(),
			Params: network.DefaultParams().WithWAN(30*sim.Millisecond, 0.1e6),
		}
		x.Workers = -1
		seq, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4} {
			x.Workers = w
			res, err := x.Run()
			if err != nil {
				t.Fatalf("opt=%v workers=%d: %v", opt, w, err)
			}
			resultsEqual(t, fmt.Sprintf("ASP opt=%v workers=%d", opt, w), seq, res)
		}
	}
}

// The ablations behind the design choices DESIGN.md calls out: each row
// toggles one knob of an optimization (or of the interconnect model) and
// pins the direction the headline metric moves in.
package twolayer_test

import (
	"testing"

	"twolayer"
	"twolayer/internal/apps/asp"
	"twolayer/internal/apps/tsp"
	"twolayer/internal/apps/water"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/topology"
)

// TestAblations runs each ablation at Paper scale: the metric must rise
// strictly from each mode to the next.
func TestAblations(t *testing.T) {
	// elapsed is the virtual run time of job on the 4x8 DAS machine, in
	// seconds.
	elapsed := func(t *testing.T, params network.Params, job par.Job) float64 {
		res, err := par.Run(topology.DAS(), params, 42, job)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed.Seconds()
	}
	for _, ab := range []struct {
		name   string
		modes  []string
		metric func(t *testing.T, mode int) float64
	}{{
		// ASP's ordering traffic: dropping the sequencer entirely (the
		// alternative the paper suggests in Section 3.2) beats migrating it.
		"ASP sequencer (run time, s)", []string{"no-sequencer", "migrating-sequencer"},
		func(t *testing.T, mode int) float64 {
			cfg := asp.ConfigFor(twolayer.PaperScale)
			cfg.DropSequencer = mode == 0
			return elapsed(t, network.DefaultParams().WithWAN(30*twolayer.Millisecond, 6e6), asp.New(cfg, 32).Job(true))
		},
	}, {
		// TSP's steal size: per-job stealing pays one wide-area round trip
		// per job at the tail, half-queue batches amortize it.
		"TSP steal batch (run time, s)", []string{"half-queue", "batch-4", "single-job"},
		func(t *testing.T, mode int) float64 {
			cfg := tsp.ConfigFor(twolayer.PaperScale)
			cfg.StealBatch = []int{0, 4, 1}[mode]
			return elapsed(t, network.DefaultParams().WithWAN(100*twolayer.Millisecond, 6e6), tsp.New(cfg, 32).Job(true))
		},
	}, {
		// Water's coordinators: round-robin placement beats concentrating
		// every remote owner's coordination on the cluster's first rank.
		"Water coordinators (run time, s)", []string{"spread", "fixed-rank0"},
		func(t *testing.T, mode int) float64 {
			cfg := water.ConfigFor(twolayer.PaperScale)
			cfg.FixedCoordinators = mode == 1
			return elapsed(t, network.DefaultParams().WithWAN(3300*twolayer.Microsecond, 0.95e6), water.New(cfg, 32).Job(true))
		},
	}, {
		// How much of MagPIe's reported 10x win over MPICH per-message TCP
		// costs explain: clean links give the tree-depth ratio (~3x), an
		// RTT-proportional per-message surcharge widens it.
		"MagPIe TCP surcharge (best speedup)", []string{"clean-links", "tcp-like"},
		func(t *testing.T, mode int) float64 {
			params := twolayer.DefaultParams().WithWAN(10*twolayer.Millisecond, 1e6)
			params.WANMessageRTTFactor = []float64{0, 0.75}[mode]
			results, err := twolayer.CollectiveComparison(topology.MustUniform(8, 4), params, 64, 1)
			if err != nil {
				t.Fatal(err)
			}
			best := 0.0
			for _, r := range results {
				best = max(best, r.Speedup)
			}
			return best
		},
	}} {
		t.Run(ab.name, func(t *testing.T) {
			prev := 0.0
			for m, mode := range ab.modes {
				v := ab.metric(t, m)
				t.Logf("%s: %.3f", mode, v)
				if m > 0 && v <= prev {
					t.Errorf("%s (%.3f) should exceed %s (%.3f)", mode, v, ab.modes[m-1], prev)
				}
				prev = v
			}
		})
	}
}

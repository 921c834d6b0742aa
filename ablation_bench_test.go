// Ablation benchmarks for the design choices DESIGN.md calls out: each one
// toggles a single knob of an optimization (or of the interconnect model)
// and reports the headline metric, showing why the design is the way it is.
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

// BenchmarkAblationASPSequencer compares the paper's two ways of fixing
// ASP's ordering traffic: migrating the sequencer vs dropping it entirely
// (the alternative the paper suggests in Section 3.2).
func BenchmarkAblationASPSequencer(b *testing.B) {
	params := network.DefaultParams().WithWAN(30*twolayer.Millisecond, 6e6)
	for _, mode := range []struct {
		name string
		drop bool
	}{{"migrating-sequencer", false}, {"no-sequencer", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var elapsed twolayer.Time
			for i := 0; i < b.N; i++ {
				cfg := asp.ConfigFor(twolayer.PaperScale)
				cfg.DropSequencer = mode.drop
				inst := asp.New(cfg, 32)
				res, err := par.Run(topology.DAS(), params, 42, inst.Job(true))
				if err != nil {
					b.Fatal(err)
				}
				elapsed = res.Elapsed
			}
			b.ReportMetric(elapsed.Seconds(), "vsec/run")
		})
	}
}

// BenchmarkAblationTSPStealBatch varies the work-stealing transfer size:
// per-job stealing pays one wide-area round trip per job at the tail,
// half-queue batches amortize it.
func BenchmarkAblationTSPStealBatch(b *testing.B) {
	params := network.DefaultParams().WithWAN(100*twolayer.Millisecond, 6e6)
	for _, mode := range []struct {
		name  string
		batch int
	}{{"half-queue", 0}, {"batch-4", 4}, {"single-job", 1}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var elapsed twolayer.Time
			for i := 0; i < b.N; i++ {
				cfg := tsp.ConfigFor(twolayer.PaperScale)
				cfg.StealBatch = mode.batch
				inst := tsp.New(cfg, 32)
				res, err := par.Run(topology.DAS(), params, 42, inst.Job(true))
				if err != nil {
					b.Fatal(err)
				}
				elapsed = res.Elapsed
			}
			b.ReportMetric(elapsed.Seconds(), "vsec/run")
		})
	}
}

// BenchmarkAblationWaterCoordinatorPlacement compares round-robin
// coordinator placement against concentrating every remote owner's
// coordination on the cluster's first rank.
func BenchmarkAblationWaterCoordinatorPlacement(b *testing.B) {
	params := network.DefaultParams().WithWAN(3300*twolayer.Microsecond, 0.95e6)
	for _, mode := range []struct {
		name  string
		fixed bool
	}{{"spread", false}, {"fixed-rank0", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var elapsed twolayer.Time
			for i := 0; i < b.N; i++ {
				cfg := water.ConfigFor(twolayer.PaperScale)
				cfg.FixedCoordinators = mode.fixed
				inst := water.New(cfg, 32)
				res, err := par.Run(topology.DAS(), params, 42, inst.Job(true))
				if err != nil {
					b.Fatal(err)
				}
				elapsed = res.Elapsed
			}
			b.ReportMetric(elapsed.Seconds(), "vsec/run")
		})
	}
}

// BenchmarkAblationTCPSurcharge shows how much of MagPIe's reported 10x win
// over MPICH is explained by per-message TCP costs on the wide area: the
// clean link model yields the tree-depth ratio (~3x), adding an
// RTT-proportional per-message surcharge widens it.
func BenchmarkAblationTCPSurcharge(b *testing.B) {
	topo, err := twolayer.Uniform(8, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		factor float64
	}{{"clean-links", 0}, {"tcp-like", 0.75}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			params := twolayer.DefaultParams().WithWAN(10*twolayer.Millisecond, 1e6)
			params.WANMessageRTTFactor = mode.factor
			var best float64
			for i := 0; i < b.N; i++ {
				results, err := twolayer.CollectiveComparison(topo, params, 64, 1)
				if err != nil {
					b.Fatal(err)
				}
				best = 0
				for _, r := range results {
					if r.Speedup > best {
						best = r.Speedup
					}
				}
			}
			b.ReportMetric(best, "best_speedup")
		})
	}
}

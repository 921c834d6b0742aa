package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"twolayer/internal/apps"
	"twolayer/internal/apps/collectives"
	"twolayer/internal/core"
	"twolayer/internal/network"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
	"twolayer/internal/topology"
	"twolayer/internal/wantopo"
)

// defaultSeed is the seed the committed references were rendered at.
const defaultSeed = 42

// workload is one sweep the benchmark times. A pass is one call into the
// core entry point a CLI user would reach, against an explicit cache; cells
// is the same sweep unrolled into its experiments, which the traced replay
// runs one at a time.
type workload struct {
	Name string
	Why  string
	// ExpectS is one cold child's wall time on the reference 2-core
	// sandbox; four times it is the child's ceiling.
	ExpectS float64
	// Cells is what one pass completes, the numerator of cells_per_s.
	Cells int
	// Warm marks the one workload whose passes share a child: its set-up
	// fills a disk cache that every timed pass then replays.
	Warm bool
	// Reference is the committed rendering the default-seed output must
	// equal byte for byte, relative to the repository root; "" when the
	// workload has none. Stamped references carry the golden-table hash
	// they were rendered under in their first line.
	Reference string
	Stamped   bool
	Scale     apps.Scale
	// ProfilePasses is how many passes share the traced run's CPU profile
	// (default 1): enough that a short workload still yields a few hundred
	// samples at the profiler's 100 Hz.
	ProfilePasses int
	pass          func(in inputs, cache *core.RunCache) ([]byte, error)
	// cells is nil for the heatmap, whose replay is its own (child.go).
	cells func(in inputs) []core.Experiment
}

// inputs is what a pass is given: the problem scale, and everything taken
// from -seed. The paper grids are fixed; the seed drives the regime
// scenarios and the warm lookup order.
type inputs struct {
	scale    apps.Scale
	heatSize int
	// reference says the output is the one the committed reference holds:
	// default seed, full scale.
	reference bool
	regimes   []regime.Params
	lats      []sim.Time
	bws       []float64
}

// makeInputs derives a workload's inputs from the seed. smoke shrinks the
// problem to Tiny (and the heatmap to 8x8): a check of the harness, not a
// measurement.
func makeInputs(w *workload, seed int64, smoke bool) inputs {
	in := inputs{scale: w.Scale, heatSize: core.DefaultHeatmapSize, reference: seed == defaultSeed && !smoke}
	if smoke {
		in.scale, in.heatSize = apps.Tiny, 8
	}
	switch w.Name {
	case "regimes_small":
		// The default seed reproduces the committed study (regime seed 7);
		// any other shifts every scenario's phases, victims and flows.
		in.regimes = core.DefaultRegimes()
		for i := range in.regimes {
			in.regimes[i].Seed += seed - defaultSeed
			if in.regimes[i].Seed < 0 {
				in.regimes[i].Seed = -in.regimes[i].Seed
			}
		}
	case "fig3_warm":
		// Figure 3 walks its axes in the order given, so shuffling them
		// shuffles the order the 468 lookups reach the cache in.
		rng := rand.New(rand.NewSource(seed))
		in.lats = append([]sim.Time(nil), core.Latencies...)
		in.bws = append([]float64(nil), core.Bandwidths...)
		rng.Shuffle(len(in.lats), func(i, j int) { in.lats[i], in.lats[j] = in.lats[j], in.lats[i] })
		rng.Shuffle(len(in.bws), func(i, j int) { in.bws[i], in.bws[j] = in.bws[j], in.bws[i] })
	}
	return in
}

var workloads = []*workload{
	{
		Name:    "fig3_paper_cold",
		Why:     "cold paper-scale Figure 3, the ROADMAP headline: app-compute-bound, so an apps-kernel gain shows here and a sim/par gain barely does",
		ExpectS: 22, Cells: 468, Reference: "results/figure3.csv",
		Scale: apps.Paper, pass: fig3Pass, cells: fig3Cells,
	},
	{
		Name:    "fig3_small_cold",
		Why:     "same sweep at Small: runtime, sim and par dominate and every app is under 15%, so kernel, handoff and send-path changes show here",
		ExpectS: 7, Cells: 468, Reference: "benchmark/testdata/figure3_small.csv", Stamped: true,
		Scale: apps.Small, pass: fig3Pass, cells: fig3Cells,
	},
	{
		Name:    "heatmap_small",
		Why:     "11 recordings then 45,056 analytic points: over 80% of CPU is the batched and matched solvers, isolating the analytic layer",
		ExpectS: 5, Cells: 11 * core.DefaultHeatmapSize * core.DefaultHeatmapSize,
		Reference: "results/heatmap.csv", Scale: apps.Small,
		pass: func(in inputs, cache *core.RunCache) ([]byte, error) {
			panels, _, err := core.Heatmap(in.scale, core.HeatmapOptions{Size: in.heatSize, Cache: cache})
			var b bytes.Buffer
			core.WriteHeatmapCSV(&b, panels)
			return b.Bytes(), err
		},
	},
	{
		Name:    "regimes_small",
		Why:     "communication-bound study through regime plans, the reliable transport and adaptive collectives, paths no Figure 3 workload touches",
		ExpectS: 1.5, Cells: 63, Reference: "results/regimes.csv", Scale: apps.Small, ProfilePasses: 5,
		pass: func(in inputs, cache *core.RunCache) ([]byte, error) {
			points, err := core.RegimeStudy(core.RegimeStudyConfig{Scale: in.scale, Regimes: in.regimes, Cache: cache})
			var b bytes.Buffer
			core.WriteRegimeCSV(&b, points)
			return b.Bytes(), err
		},
		cells: regimeCells,
	},
	{
		Name:    "topology_paper",
		Why:     "only workload on multi-hop wantopo routes, 64-cluster machines and the windowed engine as the definition of time; allocation-heavy",
		ExpectS: 21, Cells: 18, Reference: "results/topology.csv", Scale: apps.Paper,
		pass: func(in inputs, cache *core.RunCache) ([]byte, error) {
			points, err := core.TopologyStudy(core.TopologyStudyConfig{Scale: in.scale, Cache: cache})
			var b bytes.Buffer
			core.WriteTopologyCSV(&b, points)
			return b.Bytes(), err
		},
		cells: topologyCells,
	},
	{
		Name:    "fig3_warm",
		Why:     "468 disk replays then 468 memory hits per pass: the cache read path, beside the cold workloads' writes; lookup order from the seed",
		ExpectS: 12, Cells: 468, Warm: true, ProfilePasses: 100,
		Scale: apps.Tiny, pass: fig3Pass, cells: fig3Cells,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const fig3Heading = "Figure 3: Speedup relative to an all-Myrinet cluster (percent)\n"

// renderFig3 reproduces `figures -fig3 -csv` byte for byte: the heading,
// then one five-column table per panel.
func renderFig3(panels []core.Figure3Panel) []byte {
	var b bytes.Buffer
	b.WriteString(fig3Heading)
	for _, p := range panels {
		t := stats.NewTable("app", "variant", "latency_ms", "bandwidth_MBs", "relative_speedup_pct")
		variant := "unoptimized"
		if p.Optimized {
			variant = "optimized"
		}
		for i, lat := range p.Latencies {
			for j, bw := range p.Bandwidths {
				value := fmt.Sprintf("%.2f", p.Rel[i][j])
				if k := p.FailedAt(i, j); k != "" {
					value = core.FailedCell(k)
				}
				t.AddRow(p.App, variant,
					fmt.Sprintf("%.4g", lat.Milliseconds()),
					fmt.Sprintf("%.4g", bw/1e6), value)
			}
		}
		t.CSV(&b)
	}
	return b.Bytes()
}

func fig3Pass(in inputs, cache *core.RunCache) ([]byte, error) {
	panels, err := core.Figure3(in.scale, core.Figure3Options{
		Latencies: in.lats, Bandwidths: in.bws, Cache: cache,
	})
	return renderFig3(panels), err
}

// fig3Cells unrolls core.Figure3: one single-cluster baseline per
// application, then every variant at every grid point.
func fig3Cells(in inputs) []core.Experiment {
	lats, bws := in.lats, in.bws
	if lats == nil {
		lats, bws = core.Latencies, core.Bandwidths
	}
	var xs []core.Experiment
	for _, a := range core.Apps() {
		xs = append(xs, baseline(a, in.scale, topology.DAS().Procs()))
	}
	for _, v := range variants() {
		for _, lat := range lats {
			for _, bw := range bws {
				x := v
				x.Scale, x.Params = in.scale, network.DefaultParams().WithWAN(lat, bw)
				xs = append(xs, x)
			}
		}
	}
	return xs
}

// variants lists the eleven application variants of Figure 3 on the DAS
// shape at the reference point; callers set the scale.
func variants() []core.Experiment {
	var xs []core.Experiment
	for _, a := range core.Apps() {
		xs = append(xs, core.Experiment{App: a, Topo: topology.DAS(), Params: core.ReferenceParams()})
		if a.HasOptimized {
			xs = append(xs, core.Experiment{App: a, Optimized: true, Topo: topology.DAS(), Params: core.ReferenceParams()})
		}
	}
	return xs
}

func baseline(a apps.Info, scale apps.Scale, procs int) core.Experiment {
	return core.Experiment{
		App: a, Scale: scale, Topo: topology.SingleCluster(procs),
		Params: network.DefaultParams(),
	}
}

// regimeCells unrolls core.RegimeStudy's defaults: per regime and workload
// the calm, static and adaptive arms. The calm arms repeat across regimes,
// which is where the study's 14 memory hits come from.
func regimeCells(in inputs) []core.Experiment {
	var xs []core.Experiment
	for _, r := range in.regimes {
		for _, a := range append(core.Apps(), collectives.Info) {
			base := core.Experiment{
				App: a, Scale: in.scale, Optimized: a.HasOptimized,
				Topo: topology.DAS(), Params: core.ReferenceParams(),
			}
			if a.Name == collectives.Info.Name {
				// The study starts Collectives from the flat family on a
				// metro-class WAN.
				base.Optimized = false
				base.Params = network.DefaultParams().WithWAN(50*sim.Microsecond, 50e6)
			}
			static, adaptive := base, base
			static.Regime = r
			adaptive.Regime, adaptive.Adaptive = r, true
			xs = append(xs, base, static, adaptive)
		}
	}
	return xs
}

// topologyCells unrolls core.TopologyStudy's defaults at Paper scale.
func topologyCells(in inputs) []core.Experiment {
	const procs = 128
	var suite []apps.Info
	for _, n := range []string{"Water", "ASP"} {
		a, err := core.AppByName(n)
		if err != nil {
			panic(err)
		}
		suite = append(suite, a)
	}
	var xs []core.Experiment
	for _, a := range suite {
		xs = append(xs, baseline(a, in.scale, procs))
	}
	for _, a := range suite {
		for _, c := range core.DefaultTopologyClusters {
			for _, spec := range core.DefaultTopologySpecs {
				wan, err := wantopo.Parse(spec, c)
				if err != nil {
					panic(err)
				}
				xs = append(xs, core.Experiment{
					App: a, Scale: in.scale, Optimized: a.HasOptimized,
					Topo: topology.MustUniform(c, procs/c), Params: core.ReferenceParams(), WAN: wan,
				})
			}
		}
	}
	return xs
}

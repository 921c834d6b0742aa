package core

import (
	"strings"
	"testing"

	"twolayer/internal/apps"
	"twolayer/internal/collective"
	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	suite := Apps()
	if len(suite) != 6 {
		t.Fatalf("suite has %d applications, want 6", len(suite))
	}
	want := []string{"Water", "Barnes-Hut", "TSP", "ASP", "Awari", "FFT"}
	for i, n := range want {
		if suite[i].Name != n {
			t.Errorf("app %d = %q, want %q", i, suite[i].Name, n)
		}
	}
	optimizable := 0
	for _, a := range suite {
		if a.HasOptimized {
			optimizable++
		}
	}
	if optimizable != 5 {
		t.Errorf("%d optimizable applications, want 5 (all but FFT)", optimizable)
	}
	if _, err := AppByName("Water"); err != nil {
		t.Error(err)
	}
	if _, err := AppByName("nope"); err == nil {
		t.Error("unknown app should error")
	}
}

func TestSweepAxesMatchPaper(t *testing.T) {
	if len(Bandwidths) != 6 || len(Latencies) != 7 {
		t.Fatalf("axes %dx%d, want 6 bandwidths x 7 latencies", len(Bandwidths), len(Latencies))
	}
	if Bandwidths[0] != 6.3e6 || Bandwidths[5] != 0.03e6 {
		t.Errorf("bandwidth endpoints %v", Bandwidths)
	}
	if Latencies[0] != 500*sim.Microsecond || Latencies[6] != 300*sim.Millisecond {
		t.Errorf("latency endpoints %v", Latencies)
	}
}

func TestMetrics(t *testing.T) {
	if got := RelativeSpeedup(sim.Second, 2*sim.Second); got != 50 {
		t.Errorf("RelativeSpeedup = %v", got)
	}
	if got := CommTimePercent(sim.Second, 4*sim.Second); got != 75 {
		t.Errorf("CommTimePercent = %v", got)
	}
	if got := CommTimePercent(2*sim.Second, sim.Second); got != 0 {
		t.Errorf("negative comm time should clamp to 0, got %v", got)
	}
	if RelativeSpeedup(sim.Second, 0) != 0 {
		t.Error("zero multi-cluster time should yield 0")
	}
}

func TestExperimentRunsAndVerifies(t *testing.T) {
	for _, app := range Apps() {
		res, err := Experiment{
			App: app, Scale: apps.Tiny, Optimized: app.HasOptimized,
			Topo: topology.DAS(), Params: network.DefaultParams(), Verify: true,
		}.Run()
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%s: zero elapsed time", app.Name)
		}
	}
}

func TestBaselineCacheHits(t *testing.T) {
	b := NewBaselines(apps.Tiny)
	app := Apps()[2] // TSP is quick at Tiny scale
	t1, err := b.SingleCluster(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := b.SingleCluster(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Errorf("cache returned different values: %v vs %v", t1, t2)
	}
}

// smallPanels runs a reduced Figure 3 grid used by several tests.
func smallPanels(t *testing.T, names []string) []Figure3Panel {
	t.Helper()
	panels, err := Figure3(apps.Small, Figure3Options{
		Apps:       names,
		Latencies:  []sim.Time{500 * sim.Microsecond, 10 * sim.Millisecond, 100 * sim.Millisecond},
		Bandwidths: []float64{6.3e6, 0.3e6, 0.03e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return panels
}

func TestFigure3QualitativeShape(t *testing.T) {
	panels := smallPanels(t, []string{"Water", "FFT"})
	byKey := map[string]Figure3Panel{}
	for _, p := range panels {
		k := p.App
		if p.Optimized {
			k += "+"
		}
		byKey[k] = p
	}
	wu, wo, ff := byKey["Water"], byKey["Water+"], byKey["FFT"]
	if wu.App == "" || wo.App == "" || ff.App == "" {
		t.Fatalf("missing panels: %v", byKey)
	}
	// Monotone degradation along both axes for the unoptimized program.
	if !(wu.Rel[0][0] >= wu.Rel[0][2] && wu.Rel[0][0] >= wu.Rel[2][0]) {
		t.Errorf("Water unopt not degrading: %v", wu.Rel)
	}
	// Optimized Water dominates at the harshest corner.
	if wo.Rel[2][2] < wu.Rel[2][2] {
		t.Errorf("optimized Water (%v%%) below unoptimized (%v%%) at the harsh corner",
			wo.Rel[2][2], wu.Rel[2][2])
	}
	// At the large-gap corner the unoptimized program collapses.
	if wu.Rel[2][2] > 40 {
		t.Errorf("Water unopt should collapse at 100ms/0.03MBs, got %.1f%%", wu.Rel[2][2])
	}
	// FFT is the worst performer at every harsh setting.
	if ff.Rel[2][2] > wo.Rel[2][2] {
		t.Errorf("FFT (%v%%) should not beat optimized Water (%v%%)", ff.Rel[2][2], wo.Rel[2][2])
	}
	// Rendering works and mentions the variant.
	if !strings.Contains(RenderFigure3Panel(wo), "optimized") {
		t.Error("render should mention the variant")
	}
}

func TestFigure4CurvesBehave(t *testing.T) {
	curves, err := figure4SmallForTest(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range curves {
		for _, v := range c.CommPct {
			if v < 0 || v > 100 {
				t.Errorf("%s: comm%% out of range: %v", c.App, c.CommPct)
			}
		}
	}
	// FFT's communication share must be the largest at the slow end.
	last := map[string]float64{}
	for _, c := range curves {
		last[c.App] = c.CommPct[len(c.CommPct)-1]
	}
	for app, v := range last {
		if app == "FFT" {
			continue
		}
		if last["FFT"] < v-1e-9 {
			t.Errorf("FFT comm%% (%.1f) should dominate %s (%.1f) at the slow end", last["FFT"], app, v)
		}
	}
	if s := RenderFigure4(curves, "bw"); !strings.Contains(s, "FFT") {
		t.Error("render missing FFT column")
	}
}

// figure4SmallForTest is a reduced-axis version to keep test time sane.
func figure4SmallForTest(byBandwidth bool) ([]Figure4Curve, error) {
	saveB, saveL := Bandwidths, Latencies
	Bandwidths = []float64{6.3e6, 0.1e6}
	Latencies = []sim.Time{500 * sim.Microsecond, 30 * sim.Millisecond}
	defer func() { Bandwidths, Latencies = saveB, saveL }()
	if byBandwidth {
		return Figure4Bandwidth(apps.Small, nil)
	}
	return Figure4Latency(apps.Small, nil)
}

func TestGapAnalysis(t *testing.T) {
	panels := []Figure3Panel{{
		App:        "Synthetic",
		Optimized:  true,
		Latencies:  []sim.Time{500 * sim.Microsecond, 10 * sim.Millisecond, 300 * sim.Millisecond},
		Bandwidths: []float64{6.3e6, 0.5e6, 0.03e6},
		Rel: [][]float64{
			{90, 70, 30},
			{80, 50, 20},
			{40, 20, 10},
		},
	}}
	gaps := GapAnalysis(panels, 60)
	if len(gaps) != 1 {
		t.Fatal("one panel in, one result out")
	}
	g := gaps[0]
	// Acceptable along the fast-latency row: 6.3e6 and 0.5e6 -> gap = 50e6/0.5e6 = 100.
	if g.BandwidthGap != 100 {
		t.Errorf("bandwidth gap = %v, want 100", g.BandwidthGap)
	}
	// Acceptable along the fast-bandwidth column: 0.5ms and 10ms -> 10ms/20us = 500.
	if g.LatencyGap != 500 {
		t.Errorf("latency gap = %v, want 500", g.LatencyGap)
	}
	if !strings.Contains(RenderGaps(gaps, 60), "Synthetic") {
		t.Error("render missing app")
	}
	if oom := OrdersOfMagnitude(100); oom != 2 {
		t.Errorf("OrdersOfMagnitude(100) = %v", oom)
	}
	if OrdersOfMagnitude(0) != 0 {
		t.Error("OrdersOfMagnitude(0) should be 0")
	}
}

func TestOptimizedExtendsAcceptableGap(t *testing.T) {
	// The paper's headline: restructuring extends the acceptable gap by an
	// order of magnitude or more. Compare Water's unoptimized and optimized
	// bandwidth gaps at the 60% threshold on a reduced grid.
	panels, err := Figure3(apps.Small, Figure3Options{
		Apps:       []string{"Water"},
		Latencies:  []sim.Time{500 * sim.Microsecond},
		Bandwidths: []float64{6.3e6, 0.95e6, 0.3e6, 0.1e6, 0.03e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	gaps := GapAnalysis(panels, 60)
	var unopt, opt float64
	for _, g := range gaps {
		if g.Optimized {
			opt = g.BandwidthGap
		} else {
			unopt = g.BandwidthGap
		}
	}
	if opt < unopt*3 {
		t.Errorf("optimized bandwidth gap (%v) should far exceed unoptimized (%v)", opt, unopt)
	}
}

func TestTable2Metadata(t *testing.T) {
	rows := Table2()
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	s := RenderTable2()
	for _, want := range []string{"Water", "All to Half", "Sequencer Migration", "Msg Comb/Clus"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 2 render missing %q", want)
		}
	}
}

func TestTable1SmallScale(t *testing.T) {
	rows, err := Table1(apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Speedup32 <= 0 || r.Runtime <= 0 {
			t.Errorf("%s: degenerate row %+v", r.App, r)
		}
		if r.Speedup32 > 33 {
			t.Errorf("%s: impossible speedup %.1f", r.App, r.Speedup32)
		}
	}
	if !strings.Contains(RenderTable1(rows), "Program") {
		t.Error("render missing header")
	}
}

func TestFigure1TrafficOrdering(t *testing.T) {
	points, err := Figure1(apps.Small)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Figure1Point{}
	for _, p := range points {
		byApp[p.App] = p
	}
	// The paper's scatter: TSP has by far the lowest volume; FFT and
	// Barnes-Hut the highest; Awari has the most messages.
	if byApp["TSP"].VolumeMBs > byApp["FFT"].VolumeMBs {
		t.Errorf("TSP volume (%.2f) should be far below FFT (%.2f)",
			byApp["TSP"].VolumeMBs, byApp["FFT"].VolumeMBs)
	}
	for _, other := range []string{"Water", "TSP", "ASP"} {
		if byApp["Awari"].MessagesPerSec < byApp[other].MessagesPerSec {
			t.Errorf("Awari messages/s (%.0f) should exceed %s (%.0f)",
				byApp["Awari"].MessagesPerSec, other, byApp[other].MessagesPerSec)
		}
	}
	if !strings.Contains(RenderFigure1(points), "Awari") {
		t.Error("render missing Awari")
	}
}

func TestClusterShapeStudy(t *testing.T) {
	results, err := ClusterShapeStudy(apps.Small, []string{"Water"},
		3300*sim.Microsecond, 0.95e6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(DefaultShapes()) {
		t.Fatalf("%d results", len(results))
	}
	// On the fully connected mesh, 8x4 should not be slower than 2x16
	// (bisection bandwidth grows with cluster count).
	byShape := map[string]ShapeResult{}
	for _, r := range results {
		byShape[r.Shape] = r
	}
	if byShape["8x4"].Elapsed > byShape["2x16"].Elapsed {
		t.Errorf("8x4 (%v) should not be slower than 2x16 (%v)",
			byShape["8x4"].Elapsed, byShape["2x16"].Elapsed)
	}
	if !strings.Contains(RenderShapes(results), "4x8") {
		t.Error("render missing shape")
	}
}

func TestCollectiveComparisonAllOps(t *testing.T) {
	// Section 6 reference point: 10 ms / 1 MByte/s. With more, smaller
	// clusters the flat trees chain more wide-area hops (8 clusters of 4
	// here). The paper reports wins up to 10x against MPICH; our clean
	// model, which charges only 60us of per-message wide-area protocol
	// overhead instead of real TCP behaviour, shows ~3x on the
	// latency-bound operations (see EXPERIMENTS.md).
	params := network.DefaultParams().WithWAN(10*sim.Millisecond, 1e6)
	results, err := CollectiveComparison(topology.MustUniform(8, 4), params, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(collective.OpNames) {
		t.Fatalf("%d results, want %d", len(results), len(collective.OpNames))
	}
	var maxSpeedup float64
	losses := 0
	for _, r := range results {
		if r.Flat <= 0 || r.Hier <= 0 {
			t.Errorf("%s: degenerate times %+v", r.Op, r)
		}
		if r.Speedup < 0.95 {
			losses++
		}
		if r.Speedup > maxSpeedup {
			maxSpeedup = r.Speedup
		}
	}
	if losses > 2 {
		t.Errorf("hierarchical lost clearly on %d operations", losses)
	}
	if maxSpeedup < 2.5 {
		t.Errorf("best speedup only %.1fx; expected ~3x on latency-bound ops", maxSpeedup)
	}
	if !strings.Contains(RenderCollectives(results), "Bcast") {
		t.Error("render missing op")
	}
}

func TestCollectiveAdvantageGrowsWithLatency(t *testing.T) {
	// Paper: "the system's advantage increases for higher wide area
	// latencies."
	bcastSpeedup := func(lat sim.Time) float64 {
		params := network.DefaultParams().WithWAN(lat, 1e6)
		results, err := CollectiveComparison(topology.MustUniform(8, 4), params, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Op == "Allreduce" {
				return r.Speedup
			}
		}
		t.Fatal("Allreduce missing")
		return 0
	}
	low := bcastSpeedup(sim.Millisecond)
	high := bcastSpeedup(100 * sim.Millisecond)
	if high < low {
		t.Errorf("advantage should grow with latency: %.2fx at 1ms vs %.2fx at 100ms", low, high)
	}
}

func TestExperimentWithTrace(t *testing.T) {
	app := Apps()[2] // TSP
	tr := trace.NewStream(32)
	res, err := Experiment{
		App: app, Scale: apps.Tiny, Optimized: true,
		Topo: topology.DAS(), Params: network.DefaultParams(), Trace: tr,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	var busy float64
	for _, u := range tr.Utilization(res.Elapsed) {
		busy += u
	}
	if n := tr.Summarize().Messages; n == 0 || busy == 0 {
		t.Errorf("trace empty: %d msgs, %g summed utilization", n, busy)
	}
}

func TestMPIKernelComparison(t *testing.T) {
	// Section 6: "Application kernels improve by up to a factor of 4" when
	// the hierarchical library replaces the flat one under unchanged MPI
	// programs.
	params := network.DefaultParams().WithWAN(10*sim.Millisecond, 1e6)
	results, err := MPIKernelComparison(topology.MustUniform(8, 4), params)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d kernels", len(results))
	}
	var best float64
	for _, r := range results {
		if r.Speedup < 1 {
			t.Errorf("%s: hierarchical lost (%.2fx)", r.Kernel, r.Speedup)
		}
		if r.Speedup > best {
			best = r.Speedup
		}
	}
	if best < 1.8 {
		t.Errorf("best kernel speedup %.2fx; expected a clear library-level win", best)
	}
	if !strings.Contains(RenderKernels(results), "asp-kernel") {
		t.Error("render missing kernel")
	}
}

// TestAppsOnIrregularShapes runs every application at Tiny scale on odd
// machine shapes (asymmetric clusters, singleton clusters, more processors
// than natural work partitions) and verifies the computed results.
func TestAppsOnIrregularShapes(t *testing.T) {
	shapes := [][]int{
		{1, 7},       // singleton cluster
		{5, 3, 2},    // ragged
		{2, 2, 2, 2}, // many small
		{13},         // odd single cluster
	}
	for _, sizes := range shapes {
		topo, err := topology.New(sizes)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range Apps() {
			for _, opt := range []bool{false, true} {
				if opt && !app.HasOptimized {
					continue
				}
				_, err := Experiment{
					App: app, Scale: apps.Tiny, Optimized: opt,
					Topo: topo, Params: network.DefaultParams(), Verify: true,
				}.Run()
				if err != nil {
					t.Errorf("%s (opt=%v) on %v: %v", app.Name, opt, topo, err)
				}
			}
		}
	}
}

// TestSweepDeterminism: a reduced Figure 3 panel is bit-identical across
// repeated (concurrent) sweeps.
func TestSweepDeterminism(t *testing.T) {
	run := func() []Figure3Panel {
		p, err := Figure3(apps.Tiny, Figure3Options{
			Apps:       []string{"TSP"},
			Latencies:  []sim.Time{500 * sim.Microsecond, 30 * sim.Millisecond},
			Bandwidths: []float64{6.3e6, 0.1e6},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := run(), run()
	for i := range a {
		for j := range a[i].Rel {
			for k := range a[i].Rel[j] {
				if a[i].Rel[j][k] != b[i].Rel[j][k] {
					t.Fatalf("non-deterministic sweep: %v vs %v", a[i].Rel, b[i].Rel)
				}
			}
		}
	}
}

// TestPaperScaleHeadline pins the reproduction's headline numbers at Paper
// scale (the calibrated configuration behind EXPERIMENTS.md). Skipped
// under -short: it runs several full-size simulations.
func TestPaperScaleHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale runs skipped with -short")
	}
	base := NewBaselines(apps.Paper)
	rel := func(name string, opt bool, lat sim.Time, bw float64) float64 {
		app, err := AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Experiment{
			App: app, Scale: apps.Paper, Optimized: opt,
			Topo: topology.DAS(), Params: network.DefaultParams().WithWAN(lat, bw),
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		tl, err := base.SingleCluster(app, 32)
		if err != nil {
			t.Fatal(err)
		}
		return RelativeSpeedup(tl, res.Elapsed)
	}

	// Optimized Water holds >= 60% at a two-orders-of-magnitude bandwidth
	// gap (0.1 MB/s); unoptimized has long collapsed there.
	if got := rel("Water", true, 500*sim.Microsecond, 0.1e6); got < 60 {
		t.Errorf("Water optimized at 500x bandwidth gap: %.1f%%, want >= 60%%", got)
	}
	if got := rel("Water", false, 500*sim.Microsecond, 0.1e6); got > 30 {
		t.Errorf("Water unoptimized should collapse at 0.1 MB/s: %.1f%%", got)
	}
	// Optimized Water holds >= 60% at a three-orders-of-magnitude latency
	// gap (100 ms = 5000x the 20us fast links).
	if got := rel("Water", true, 100*sim.Millisecond, 6.3e6); got < 60 {
		t.Errorf("Water optimized at 5000x latency gap: %.1f%%, want >= 60%%", got)
	}
	// TSP: bandwidth-blind when optimized.
	a := rel("TSP", true, 3300*sim.Microsecond, 6.3e6)
	b := rel("TSP", true, 3300*sim.Microsecond, 0.03e6)
	if a-b > 5 {
		t.Errorf("optimized TSP should be bandwidth-insensitive: %.1f%% vs %.1f%%", a, b)
	}
	// FFT never reaches 25% off the fastest column (the paper's negative
	// result).
	if got := rel("FFT", false, 3300*sim.Microsecond, 0.95e6); got > 25 {
		t.Errorf("FFT at 0.95 MB/s: %.1f%%, paper says the 25%% point is never reached", got)
	}
	// Awari: optimized more than doubles unoptimized at 3.3 ms or below.
	u := rel("Awari", false, 1300*sim.Microsecond, 6.3e6)
	o := rel("Awari", true, 1300*sim.Microsecond, 6.3e6)
	if o < 1.5*u {
		t.Errorf("Awari combining should roughly double performance: %.1f%% vs %.1f%%", o, u)
	}
}

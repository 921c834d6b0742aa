package core

import (
	"fmt"
	"math"

	"twolayer/internal/analytic"
	"twolayer/internal/apps"
	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
	"twolayer/internal/topology"
)

// Analytic mode: simulate once, answer many. Each variant is simulated a
// single time at the reference network point with a dependency-graph
// recorder attached; every other grid point is then answered by re-costing
// the recorded graph's wide-area edges and replaying it (matched mode, see
// analytic.Eval.SolveMatched) in microseconds instead of seconds. The
// single-cluster baselines stay simulated (they have no wide-area edges to
// re-cost and are shared with the simulated figures through the run
// cache).

// ReferenceWANLatency and ReferenceWANBandwidth place the recording point
// at the grid center — also the golden point, so recording runs are
// cross-checked by the determinism table.
const (
	ReferenceWANLatency   = 3300 * sim.Microsecond
	ReferenceWANBandwidth = 0.95e6
)

// ReferenceParams is the network point analytic graphs are recorded at.
func ReferenceParams() network.Params {
	return network.DefaultParams().WithWAN(ReferenceWANLatency, ReferenceWANBandwidth)
}

// DefaultAnalyticTolerance is the default bound on the matched replay's
// relative error at the reference point (the self-check; the frozen replay
// must be exact there regardless).
const DefaultAnalyticTolerance = 0.05

// AnalyticOptions tunes how analytic sweeps check their grids. The zero
// value means the default tolerance.
type AnalyticOptions struct {
	// Tolerance bounds the matched replay's self-check error at the
	// reference point; <= 0 means DefaultAnalyticTolerance.
	Tolerance float64
}

func (a AnalyticOptions) tolerance() float64 {
	if a.Tolerance <= 0 {
		return DefaultAnalyticTolerance
	}
	return a.Tolerance
}

// AnalyticReport is the per-variant health and sensitivity summary of an
// analytic sweep.
type AnalyticReport struct {
	App       string
	Optimized bool
	// Nodes and Messages size the recorded graph.
	Nodes, Messages int
	// RefErrorPct is the matched replay's relative error against the
	// simulated run at the reference point, in percent. The frozen replay
	// is verified exact separately; this measures the dynamic matcher.
	RefErrorPct float64
	// Engine is the replay engine chosen for this variant's grid solves:
	// "frozen" when the frozen replay tracked the matched replay within a
	// third of the tolerance at every grid-corner probe (so the cheap
	// incremental pass answers the grid), "matched" otherwise.
	Engine string
	// LatencySharePct and BandwidthSharePct decompose the reference-point
	// completion time LLAMP-style: the percentage bought back by a
	// zero-latency (resp. infinite-bandwidth) wide-area network.
	LatencySharePct, BandwidthSharePct float64
	// LatencyTolerance is the predicted relative speedup at each grid
	// latency, at the reference bandwidth — the application's
	// latency-tolerance curve.
	LatencyTolerance []AnalyticTolerancePoint
	// ToleratedLatency is the largest grid latency whose predicted
	// relative speedup stays at or above 60% — the paper's informal "still
	// runs well" criterion. Zero if none does.
	ToleratedLatency sim.Time
}

// AnalyticTolerancePoint is one point of the latency-tolerance curve.
type AnalyticTolerancePoint struct {
	Latency sim.Time
	RelPct  float64
}

// analyticProbes are two opposite wide-area corners of the grid: the
// fastest network (low latency, full bandwidth) and the slowest (high
// latency, starved bandwidth). A variant whose frozen replay tracks the
// matched one within a third of the tolerance at both earns the cheap
// frozen engine for its grid. The probes bound the drift at the corners,
// not at every interior cell — the per-application differential tests and
// the documented error table are the end-to-end accuracy contract.
func analyticProbes() []network.Params {
	lo, hi := Latencies[0], Latencies[len(Latencies)-1]
	fast, slow := Bandwidths[0], Bandwidths[len(Bandwidths)-1]
	return []network.Params{
		network.DefaultParams().WithWAN(lo, fast),
		network.DefaultParams().WithWAN(hi, slow),
	}
}

// recordingSlots is what a sweep cell that records holds of the core
// budget. Next to its run (always on the sequential kernel: the recorder
// observes one global order) it builds the graph and an evaluator over it,
// about a second cell's worth of live heap, so it counts as two; on a small
// machine that halves how many recordings overlap, for a few percent of a
// heatmap's wall time.
const recordingSlots = 2

// analyticEval records (or loads) the graph for one variant and prepares
// its evaluator plus report skeleton. The exactness check runs on every
// load: a cached graph that no longer replays to its recorded elapsed time
// is corrupt (or the replay model drifted) and must not produce figures.
func analyticEval(label string, x Experiment, pol *RunPolicy, cache *RunCache, a AnalyticOptions) (*analytic.Eval, *CellFailure, AnalyticReport, error) {
	rep := AnalyticReport{App: x.App.Name, Optimized: x.Optimized}
	g, fail, err := cache.RecordedGraph(label, x, pol)
	if err != nil || fail != nil {
		return nil, fail, rep, err
	}
	ev := analytic.NewEval(g)
	if got := ev.Solve(g.Ref); got != g.RefElapsed {
		return nil, nil, rep, fmt.Errorf("core: %s: frozen replay at the reference gives %v, recorded %v — graph corrupt or replay model drifted",
			label, got, g.RefElapsed)
	}
	rep.Nodes = g.Nodes()
	rep.Messages = g.Messages()
	refErr := relErrPct(ev.SolveMatched(g.Ref), g.RefElapsed)
	rep.RefErrorPct = refErr
	tol := a.tolerance()
	if refErr > 100*tol {
		return nil, nil, rep, fmt.Errorf("core: %s: matched replay at the reference off by %.2f%% (tolerance %.0f%%)",
			label, refErr, 100*tol)
	}
	rep.Engine = "matched"
	if ev.FrozenAccurate(analyticProbes(), tol/3) {
		rep.Engine = "frozen"
	}
	s := analyticSensitivity(analyticGridSolver(ev, rep), g.Ref)
	rep.LatencySharePct = 100 * s.LatencyShare()
	rep.BandwidthSharePct = 100 * s.BandwidthShare()
	return ev, nil, rep, nil
}

// solveSharded runs one batched solve of the given number of points,
// sharded perShard points at a time: the caller's goroutine is one shard,
// and each further shard runs only on a core-budget slot that is idle right
// now (a sweep already filling the machine with cells solves inline).
func solveSharded(points, perShard int, solve func(workers int) []sim.Time) []sim.Time {
	extra := cores.tryAcquire(min((points-1)/perShard, cores.size-1))
	defer cores.release(extra)
	return solve(1 + extra)
}

// analyticGridSolver returns the multi-point solve function for one
// variant on its calibrated engine: frozen points share batched walks,
// matched points are sharded across clones. Both are bit-identical to
// solving point by point (property-tested in internal/analytic, pinned on
// the golden variants by TestAnalyticBatchEqualsScalar).
func analyticGridSolver(ev *analytic.Eval, rep AnalyticReport) func([]network.Params) []sim.Time {
	if rep.Engine == "frozen" {
		return func(ps []network.Params) []sim.Time {
			return solveSharded(len(ps), analytic.BatchLanes, func(w int) []sim.Time {
				return ev.SolveBatchParallel(ps, w)
			})
		}
	}
	return func(ps []network.Params) []sim.Time {
		return solveSharded(len(ps), 1, func(w int) []sim.Time {
			return ev.SolveMatchedBatch(ps, w)
		})
	}
}

// analyticSolveCost estimates, per grid point, what a variant's grid solve
// costs, so a sweep can start the costliest grids first: a matched replay
// walks the whole graph once per point, while the batched frozen walk
// answers BatchLanes points per pass over it.
func analyticSolveCost(g *analytic.Graph, rep AnalyticReport) float64 {
	if rep.Engine == "frozen" {
		return float64(g.Nodes()) / analytic.BatchLanes
	}
	return float64(g.Nodes())
}

// analyticSensitivity decomposes the completion time at p through a grid
// solver: one three-point solve (asked, zero-latency, infinite-bandwidth).
func analyticSensitivity(solve func([]network.Params) []sim.Time, p network.Params) analytic.Sensitivity {
	zeroLat := p
	zeroLat.WANLatency = 0
	infBW := p
	infBW.WANBandwidth = math.MaxFloat64
	ts := solve([]network.Params{p, zeroLat, infBW})
	return analytic.Sensitivity{
		Elapsed:       ts[0],
		LatencyCost:   ts[0] - ts[1],
		BandwidthCost: ts[0] - ts[2],
	}
}

func relErrPct(got, want sim.Time) float64 {
	if want <= 0 {
		return 0
	}
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	return 100 * d / float64(want)
}

// AnalyticPoint is the analytic answer for one network point.
type AnalyticPoint struct {
	// Elapsed is the predicted completion time at the asked point.
	Elapsed sim.Time
	// LatencySharePct and BandwidthSharePct decompose Elapsed at the asked
	// point (not the reference), LLAMP-style.
	LatencySharePct, BandwidthSharePct float64
	// Report is the variant's recording health summary.
	Report AnalyticReport
}

// SolveAnalytic answers a single network point from the variant's recorded
// reference graph: x carries the asked point in Params; the recording run
// itself always happens at ReferenceParams (Verify is dropped — it cannot
// ride on a recording). A supervised kill of the one recording run comes
// back as the CellFailure.
func SolveAnalytic(label string, x Experiment, pol *RunPolicy, cache *RunCache, a AnalyticOptions) (AnalyticPoint, *CellFailure, error) {
	asked := x.Params
	x.Params = ReferenceParams()
	x.Verify = false
	ev, fail, rep, err := analyticEval(label, x, pol, cache, a)
	if err != nil || fail != nil {
		return AnalyticPoint{Report: rep}, fail, err
	}
	s := analyticSensitivity(analyticGridSolver(ev, rep), asked)
	return AnalyticPoint{
		Elapsed:           s.Elapsed,
		LatencySharePct:   100 * s.LatencyShare(),
		BandwidthSharePct: 100 * s.BandwidthShare(),
		Report:            rep,
	}, nil, nil
}

// Figure3Analytic produces the paper's Figure 3 panels from one recorded
// run per variant: record (or load) the reference graph, then solve every
// latency/bandwidth cell analytically — the whole panel in one batched
// multi-point pass per variant. Baselines are simulated through the cache as usual. a.Tolerance
// bounds the matched replay's reference self-check. Alongside the panels
// it returns one AnalyticReport per variant.
func Figure3Analytic(scale apps.Scale, opts Figure3Options, a AnalyticOptions) ([]Figure3Panel, []AnalyticReport, error) {
	if opts.WAN != nil && !opts.WAN.IsClique() {
		// The replay model charges one wide-area leg per cross-cluster
		// message; multi-hop routes and forwarding contention are invisible
		// to it. Refuse rather than answer a clique question dressed as a
		// topology one.
		return nil, nil, fmt.Errorf("core: analytic mode supports only the default clique wide-area graph (got %q)", opts.WAN.Spec())
	}
	lats := opts.Latencies
	if lats == nil {
		lats = Latencies
	}
	bws := opts.Bandwidths
	if bws == nil {
		bws = Bandwidths
	}
	topo := opts.Topo
	if topo == nil {
		topo = topology.DAS()
	}
	cache := opts.Cache
	if cache == nil {
		cache = DefaultCache
	}

	type variant struct {
		app apps.Info
		opt bool
	}
	var variants []variant
	for _, a := range Apps() {
		if len(opts.Apps) > 0 && !nameIn(opts.Apps, a.Name) {
			continue
		}
		variants = append(variants, variant{a, false})
		if a.HasOptimized {
			variants = append(variants, variant{a, true})
		}
	}

	base := NewBaselinesCached(scale, cache)
	panels := make([]Figure3Panel, len(variants))
	reports := make([]AnalyticReport, len(variants))
	graphs := make([]*analytic.Graph, len(variants))
	baselines := make([]sim.Time, len(variants))

	// Phase 1: one recording (or cache load) per variant, plus its simulated
	// single-cluster baseline and health self-check.
	err := forEachHolding(recordingSlots, len(variants), nil,
		func(v int) string {
			return fmt.Sprintf("%s (%s) analytic reference", variants[v].app.Name, variantName(variants[v].opt))
		},
		func(v int) error {
			va := variants[v]
			label := fmt.Sprintf("%s (%s) analytic reference", va.app.Name, variantName(va.opt))
			p := Figure3Panel{
				App: va.app.Name, Optimized: va.opt,
				Latencies: lats, Bandwidths: bws,
				Rel: make([][]float64, len(lats)),
			}
			for i := range lats {
				p.Rel[i] = make([]float64, len(bws))
			}
			ev, fail, rep, err := analyticEval(label, Experiment{
				App: va.app, Scale: scale, Optimized: va.opt, Topo: topo,
				Params: ReferenceParams(),
			}, opts.Policy, cache, a)
			if err != nil {
				return err
			}
			tl, err := base.SingleCluster(va.app, topo.Procs())
			if err != nil {
				return err
			}
			baselines[v] = tl
			if fail != nil {
				// The one recording run failed, so every cell of this
				// variant's panel is unanswerable.
				p.Failed = make([][]string, len(lats))
				for i := range lats {
					p.Failed[i] = make([]string, len(bws))
					for j := range bws {
						p.Failed[i][j] = fail.Kind
					}
				}
				panels[v], reports[v] = p, rep
				return nil
			}
			graphs[v] = ev.Graph()
			panels[v], reports[v] = p, rep
			return nil
		})
	if err != nil {
		return panels, reports, err
	}

	// Phase 2: solve the grids. The graph is read-only and every point is
	// independent, so one task per variant hands its whole panel — every
	// latency/bandwidth cell plus the latency-tolerance curve at the
	// reference bandwidth — to the batched multi-point solver in a single
	// pass. Variants still spread across the pool, costliest solves first.
	var live []int
	for v := range variants {
		if graphs[v] != nil {
			live = append(live, v)
		}
	}
	err = forEachWeighted(len(live),
		func(k int) float64 { return analyticSolveCost(graphs[live[k]], reports[live[k]]) },
		func(k int) string {
			v := live[k]
			return fmt.Sprintf("%s (%s) analytic solve", variants[v].app.Name, variantName(variants[v].opt))
		},
		func(k int) error {
			v := live[k]
			ev := analytic.NewEval(graphs[v])
			solve := analyticGridSolver(ev, reports[v])
			pts := make([]network.Params, 0, len(lats)*len(bws)+len(Latencies))
			for _, lat := range lats {
				for _, bw := range bws {
					pts = append(pts, network.DefaultParams().WithWAN(lat, bw))
				}
			}
			for _, lat := range Latencies {
				pts = append(pts, network.DefaultParams().WithWAN(lat, ReferenceWANBandwidth))
			}
			ts := solve(pts)
			tl := baselines[v]
			for i := range lats {
				for j := range bws {
					panels[v].Rel[i][j] = RelativeSpeedup(tl, ts[i*len(bws)+j])
				}
			}
			rep := &reports[v]
			curve := ts[len(lats)*len(bws):]
			for k, lat := range Latencies {
				rel := RelativeSpeedup(tl, curve[k])
				rep.LatencyTolerance = append(rep.LatencyTolerance, AnalyticTolerancePoint{Latency: lat, RelPct: rel})
				if rel >= 60 {
					rep.ToleratedLatency = lat
				}
			}
			return nil
		})
	return panels, reports, err
}

// Figure4AnalyticBandwidth is Figure4Bandwidth answered analytically from
// the per-application reference graphs (best variant of each application,
// as in the simulated figure).
func Figure4AnalyticBandwidth(scale apps.Scale, pol *RunPolicy, a AnalyticOptions) ([]Figure4Curve, error) {
	return figure4Analytic(scale, true, pol, a)
}

// Figure4AnalyticLatency is Figure4Latency answered analytically.
func Figure4AnalyticLatency(scale apps.Scale, pol *RunPolicy, a AnalyticOptions) ([]Figure4Curve, error) {
	return figure4Analytic(scale, false, pol, a)
}

func figure4Analytic(scale apps.Scale, byBandwidth bool, pol *RunPolicy, a AnalyticOptions) ([]Figure4Curve, error) {
	const fixedLatency = 3300 * sim.Microsecond
	const fixedBandwidth = 0.9e6
	base := NewBaselines(scale)
	suite := Apps()
	curves := make([]Figure4Curve, len(suite))
	err := forEachHolding(recordingSlots, len(suite), nil,
		func(i int) string { return fmt.Sprintf("%s analytic figure4 curve", suite[i].Name) },
		func(i int) error {
			app := suite[i]
			label := fmt.Sprintf("%s (%s) analytic reference", app.Name, variantName(app.HasOptimized))
			ev, fail, rep, err := analyticEval(label, Experiment{
				App: app, Scale: scale, Optimized: app.HasOptimized,
				Topo: topology.DAS(), Params: ReferenceParams(),
			}, pol, DefaultCache, a)
			if err != nil {
				return err
			}
			tl, err := base.SingleCluster(app, topology.DAS().Procs())
			if err != nil {
				return err
			}
			curve := Figure4Curve{App: app.Name, Optimized: app.HasOptimized}
			var xs []float64
			if byBandwidth {
				xs = Bandwidths
			} else {
				for _, l := range Latencies {
					xs = append(xs, l.Milliseconds())
				}
			}
			var preds []sim.Time
			if fail == nil {
				pts := make([]network.Params, len(xs))
				for k := range xs {
					if byBandwidth {
						pts[k] = network.DefaultParams().WithWAN(fixedLatency, xs[k])
					} else {
						pts[k] = network.DefaultParams().WithWAN(Latencies[k], fixedBandwidth)
					}
				}
				preds = analyticGridSolver(ev, rep)(pts)
			}
			anyFailed := false
			for k, x := range xs {
				curve.X = append(curve.X, x)
				if fail != nil {
					anyFailed = true
					curve.CommPct = append(curve.CommPct, 0)
					curve.Failed = append(curve.Failed, fail.Kind)
					continue
				}
				curve.CommPct = append(curve.CommPct, CommTimePercent(tl, preds[k]))
				curve.Failed = append(curve.Failed, "")
			}
			if !anyFailed {
				curve.Failed = nil
			}
			curves[i] = curve
			return nil
		})
	return curves, err
}

// ClusterShapeStudyAnalytic is ClusterShapeStudy answered analytically:
// one recording per (application, shape) at the reference point, then an
// analytic solve at the asked wide-area setting.
func ClusterShapeStudyAnalytic(scale apps.Scale, appNames []string, wanLatency sim.Time, wanBandwidth float64, pol *RunPolicy, a AnalyticOptions) ([]ShapeResult, error) {
	base := NewBaselines(scale)
	shapes := DefaultShapes()
	var suite []apps.Info
	for _, n := range appNames {
		a, err := AppByName(n)
		if err != nil {
			return nil, err
		}
		suite = append(suite, a)
	}
	type cellKey struct{ app, shape int }
	var cells []cellKey
	for a := range suite {
		for s := range shapes {
			cells = append(cells, cellKey{a, s})
		}
		if _, err := base.SingleCluster(suite[a], 32); err != nil {
			return nil, err
		}
	}
	results := make([]ShapeResult, len(cells))
	label := func(k int) string {
		c := cells[k]
		return fmt.Sprintf("%s shape=%s analytic reference", suite[c.app].Name, shapes[c.shape])
	}
	err := forEachHolding(recordingSlots, len(cells), nil, label, func(k int) error {
		c := cells[k]
		app, topo := suite[c.app], shapes[c.shape]
		ev, fail, rep, err := analyticEval(label(k), Experiment{
			App: app, Scale: scale, Optimized: app.HasOptimized, Topo: topo,
			Params: ReferenceParams(),
		}, pol, DefaultCache, a)
		if err != nil {
			return err
		}
		if fail != nil {
			results[k] = ShapeResult{
				App: app.Name, Shape: topo.String(),
				Clusters: topo.Clusters(), Failed: fail.Kind,
			}
			return nil
		}
		tl, err := base.SingleCluster(app, 32)
		if err != nil {
			return err
		}
		pred := analyticGridSolver(ev, rep)([]network.Params{network.DefaultParams().WithWAN(wanLatency, wanBandwidth)})[0]
		results[k] = ShapeResult{
			App:      app.Name,
			Shape:    topo.String(),
			Clusters: topo.Clusters(),
			Elapsed:  pred,
			RelPct:   RelativeSpeedup(tl, pred),
		}
		return nil
	})
	return results, err
}

// RenderAnalyticReports formats the per-variant analytic summaries.
func RenderAnalyticReports(reports []AnalyticReport) string {
	t := stats.NewTable("Program", "Variant", "Graph nodes", "Messages",
		"Engine", "Ref error", "Latency share", "Bandwidth share", "Tolerated latency")
	for _, r := range reports {
		tolerated := "none"
		if r.ToleratedLatency > 0 {
			tolerated = r.ToleratedLatency.String()
		}
		t.AddRow(r.App, variantName(r.Optimized),
			fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%d", r.Messages),
			r.Engine,
			fmt.Sprintf("%.2f%%", r.RefErrorPct),
			fmt.Sprintf("%.1f%%", r.LatencySharePct),
			fmt.Sprintf("%.1f%%", r.BandwidthSharePct),
			tolerated)
	}
	return t.String()
}

package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"twolayer/internal/analytic"
	"twolayer/internal/apps"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
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
	// batched frozen walk answers the grid), "matched" otherwise.
	Engine string
	// LatencySharePct and BandwidthSharePct decompose the reference-point
	// completion time LLAMP-style: the percentage bought back by a
	// zero-latency (resp. infinite-bandwidth) wide-area network.
	LatencySharePct, BandwidthSharePct float64
	// ToleratedLatency is the largest grid latency whose predicted
	// relative speedup stays at or above 60% — the paper's informal "still
	// runs well" criterion. Zero if none does.
	ToleratedLatency sim.Time
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

// analyticJob is one recording and the network points it must answer. x
// names the run to record; the recording itself always happens at
// ReferenceParams and never verifies its output (x.Params and x.Verify
// are ignored).
type analyticJob struct {
	label string
	x     Experiment
	pts   []network.Params
}

// analyticAnswer is what solveAnalytic returns for one job.
type analyticAnswer struct {
	// Report is the recording's health and sensitivity summary, with its
	// tolerated latency.
	Report AnalyticReport
	// Baseline is the single-cluster run time of the job's application on
	// as many processors.
	Baseline sim.Time
	// Elapsed is the predicted completion time at each of the job's
	// points; nil when the recording failed.
	Elapsed []sim.Time
	// Fail is the supervised kill of the recording run, if any: the job's
	// points are then unanswerable.
	Fail *CellFailure
}

// solveAnalytic is the one path from recorded graphs to analytic answers.
//
// Phase 1 records (or loads) each job's graph on recordingSlots of the core
// budget, self-checks it and picks its replay engine (recordAnalytic), and
// runs the job's single-cluster baseline beside it.
//
// Phase 2 solves. Besides its own points every job answers the
// reference-point decomposition (the reference, zero latency, infinite
// bandwidth) and every grid latency at the reference bandwidth, for the
// tolerated latency. The graphs are read-only and every point is
// independent, so all the solves become one list of tasks on the core
// budget, costliest first. The frozen jobs are one task, solved one after
// another with one batched walk per part: two at once would only hold two
// batch programs (megabytes each for Awari) for the same work, and would
// not share a core as well as a vector walk beside a matched replay does.
// A matched job is split into matchedChunk-point tasks that draw their
// evaluators from the job's pool, so the dearest replay (Water's) spreads
// over every core instead of pinning one while the others run dry. Every
// answer is bit-identical to solving point by point with Solve (frozen) or
// SolveMatched (matched).
func solveAnalytic(jobs []analyticJob, pol *RunPolicy, cache *RunCache, a AnalyticOptions) ([]analyticAnswer, error) {
	recording := func(k int) Experiment {
		x := jobs[k].x
		x.Params, x.Verify = ReferenceParams(), false
		return x
	}
	for k := range jobs {
		if err := recording(k).check(par.Record); err != nil {
			return nil, err
		}
	}
	answers := make([]analyticAnswer, len(jobs))
	graphs := make([]*analytic.Graph, len(jobs))
	err := forEachHolding(recordingSlots, len(jobs), nil,
		func(k int) string { return jobs[k].label },
		func(k int) error {
			x := recording(k)
			g, rep, fail, err := recordAnalytic(jobs[k].label, x, pol, cache, a)
			answers[k].Report, answers[k].Fail = rep, fail
			if err != nil {
				return err
			}
			answers[k].Baseline, err = singleCluster(x.App, x.Scale, x.Topo.Procs(), cache)
			if err == nil && fail == nil {
				graphs[k] = g
			}
			return err
		})
	if err != nil {
		return nil, err
	}

	// Every job also answers the reference-point decomposition and every
	// grid latency at the reference bandwidth.
	extra := []network.Params{ReferenceParams()}
	extra = append(extra, decompositionPoints(extra[0])...)
	for _, lat := range Latencies {
		extra = append(extra, network.DefaultParams().WithWAN(lat, ReferenceWANBandwidth))
	}
	type solveTask struct {
		k, part, lo, hi int // k < 0: every frozen job
		weight          float64
	}
	var tasks []solveTask
	frozen := solveTask{k: -1}
	var frozenJobs []int
	// Job k's points come in two parts, its own and the extra ones shared
	// by every job; out[k] holds the answers to each.
	parts := func(k int) [2][]network.Params { return [2][]network.Params{jobs[k].pts, extra} }
	out := make([][2][]sim.Time, len(jobs))
	pools := make([]*evalPool, len(jobs))
	for k, g := range graphs {
		if g == nil {
			continue
		}
		// A matched replay walks the whole graph once per point; the
		// batched frozen walk answers BatchLanes points per pass over it.
		nodes := float64(g.Nodes())
		if answers[k].Report.Engine == "frozen" {
			frozenJobs = append(frozenJobs, k)
			frozen.weight += nodes / analytic.BatchLanes * float64(len(jobs[k].pts)+len(extra))
			continue
		}
		pools[k] = &evalPool{g: g}
		for part, ps := range parts(k) {
			out[k][part] = make([]sim.Time, len(ps))
			for lo := 0; lo < len(ps); lo += matchedChunk {
				hi := min(lo+matchedChunk, len(ps))
				tasks = append(tasks, solveTask{k, part, lo, hi, nodes * float64(hi-lo)})
				pools[k].left++
			}
		}
	}
	if len(frozenJobs) > 0 {
		tasks = append(tasks, frozen)
	}
	err = forEachWeighted(len(tasks),
		func(i int) float64 { return tasks[i].weight },
		func(i int) string {
			if k := tasks[i].k; k >= 0 {
				return jobs[k].label + " solve"
			}
			return "frozen analytic solves"
		},
		func(i int) error {
			t := tasks[i]
			if t.k < 0 {
				for _, k := range frozenJobs {
					ev := analytic.NewEval(graphs[k])
					for part, ps := range parts(k) {
						out[k][part] = ev.SolveBatch(ps)
					}
				}
				return nil
			}
			ps, res := parts(t.k)[t.part], out[t.k][t.part]
			ev := pools[t.k].get()
			for i := t.lo; i < t.hi; i++ {
				res[i] = ev.SolveMatched(ps[i])
			}
			pools[t.k].put(ev)
			return nil
		})
	if err != nil {
		return nil, err
	}

	for k := range jobs {
		if graphs[k] == nil {
			continue
		}
		own, ext := out[k][0], out[k][1]
		rep := &answers[k].Report
		s := sensitivityOf(ext[:3])
		rep.LatencySharePct = 100 * s.LatencyShare()
		rep.BandwidthSharePct = 100 * s.BandwidthShare()
		for i, t := range ext[3:] {
			if RelativeSpeedup(answers[k].Baseline, t) >= 60 {
				rep.ToleratedLatency = Latencies[i]
			}
		}
		answers[k].Elapsed = own
	}
	return answers, nil
}

// recordAnalytic records (or loads) the graph of x, self-checks it and
// picks its replay engine: the report it returns has everything but the
// sensitivity shares and the tolerated latency. The exactness check
// runs on every load: a cached graph that no longer replays to its
// recorded elapsed time is corrupt (or the replay model drifted) and must
// not produce figures.
func recordAnalytic(label string, x Experiment, pol *RunPolicy, cache *RunCache, a AnalyticOptions) (*analytic.Graph, AnalyticReport, *CellFailure, error) {
	rep := AnalyticReport{App: x.App.Name, Optimized: x.Optimized}
	g, fail, err := cache.RecordedGraph(label, x, pol)
	if err != nil || fail != nil {
		return nil, rep, fail, err
	}
	ev := analytic.NewEval(g)
	if got := ev.Solve(g.Ref); got != g.RefElapsed {
		return nil, rep, nil, fmt.Errorf("core: frozen replay at the reference gives %v, recorded %v — graph corrupt or replay model drifted",
			got, g.RefElapsed)
	}
	rep.Nodes = g.Nodes()
	rep.Messages = g.Messages()
	refErr := relErrPct(ev.SolveMatched(g.Ref), g.RefElapsed)
	rep.RefErrorPct = refErr
	tol := a.tolerance()
	if refErr > 100*tol {
		return nil, rep, nil, fmt.Errorf("core: matched replay at the reference off by %.2f%% (tolerance %.0f%%)",
			refErr, 100*tol)
	}
	rep.Engine = "matched"
	if ev.FrozenAccurate(analyticProbes(), tol/3) {
		rep.Engine = "frozen"
	}
	return g, rep, nil, nil
}

// decompositionPoints are the two points that decompose the completion
// time at p LLAMP-style: p with a zero-latency wide area, and p with an
// infinite-bandwidth one.
func decompositionPoints(p network.Params) []network.Params {
	zeroLat, infBW := p, p
	zeroLat.WANLatency = 0
	infBW.WANBandwidth = math.MaxFloat64
	return []network.Params{zeroLat, infBW}
}

// sensitivityOf is the decomposition of the answers at a point and at its
// decompositionPoints.
func sensitivityOf(ts []sim.Time) analytic.Sensitivity {
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
// itself always happens at ReferenceParams, without verification. A
// supervised kill of the one recording run comes back as the CellFailure.
func SolveAnalytic(label string, x Experiment, pol *RunPolicy, cache *RunCache, a AnalyticOptions) (AnalyticPoint, *CellFailure, error) {
	pts := append([]network.Params{x.Params}, decompositionPoints(x.Params)...)
	answers, err := solveAnalytic([]analyticJob{{label, x, pts}}, pol, cache, a)
	if err != nil {
		return AnalyticPoint{}, nil, err
	}
	r := answers[0]
	if r.Fail != nil {
		return AnalyticPoint{Report: r.Report}, r.Fail, nil
	}
	s := sensitivityOf(r.Elapsed)
	return AnalyticPoint{
		Elapsed:           s.Elapsed,
		LatencySharePct:   100 * s.LatencyShare(),
		BandwidthSharePct: 100 * s.BandwidthShare(),
		Report:            r.Report,
	}, nil, nil
}

// Figure3Analytic produces the paper's Figure 3 panels from one recorded
// run per variant (solveAnalytic): record (or load) the reference graph,
// then solve every latency/bandwidth cell analytically. Baselines are
// simulated through the cache as usual. a.Tolerance bounds the matched
// replay's reference self-check. Alongside the panels it returns one
// AnalyticReport per variant.
func Figure3Analytic(scale apps.Scale, opts Figure3Options, a AnalyticOptions) ([]Figure3Panel, []AnalyticReport, error) {
	opts = opts.withDefaults()
	lats, bws := opts.Latencies, opts.Bandwidths
	variants := variantsOf(opts.Apps)
	grid := make([]network.Params, 0, len(lats)*len(bws))
	for _, lat := range lats {
		for _, bw := range bws {
			grid = append(grid, network.DefaultParams().WithWAN(lat, bw))
		}
	}
	jobs := make([]analyticJob, len(variants))
	for v, va := range variants {
		jobs[v] = analyticJob{
			label: fmt.Sprintf("%s (%s) analytic reference", va.app.Name, variantName(va.opt)),
			x:     Experiment{App: va.app, Scale: scale, Optimized: va.opt, Topo: opts.Topo, WAN: opts.WAN},
			pts:   grid,
		}
	}
	answers, err := solveAnalytic(jobs, opts.Policy, opts.Cache, a)
	if err != nil {
		return nil, nil, err
	}
	panels := make([]Figure3Panel, len(answers))
	reports := make([]AnalyticReport, len(answers))
	for v, r := range answers {
		p := Figure3Panel{
			App: variants[v].app.Name, Optimized: variants[v].opt,
			Latencies: lats, Bandwidths: bws,
			Rel: make([][]float64, len(lats)),
		}
		if r.Fail != nil {
			// The one recording run failed, so every cell of this
			// variant's panel is unanswerable.
			p.Failed = make([][]string, len(lats))
		}
		for i := range lats {
			p.Rel[i] = make([]float64, len(bws))
			if r.Fail != nil {
				p.Failed[i] = slices.Repeat([]string{r.Fail.Kind}, len(bws))
				continue
			}
			for j := range bws {
				p.Rel[i][j] = RelativeSpeedup(r.Baseline, r.Elapsed[i*len(bws)+j])
			}
		}
		panels[v], reports[v] = p, r.Report
	}
	return panels, reports, nil
}

// matchedChunk is the points one matched task of solveAnalytic solves: a
// fraction of a second of Water's replay, so a heatmap's matched grids
// divide finely over the cores, and few enough tasks that the pool lock
// and the per-task bookkeeping stay invisible.
const matchedChunk = 256

// evalPool lends evaluators of one matched job's graph to the phase-2
// tasks solving its chunks. It holds one prepared Eval that nobody solves
// on, plus the clones of it that finished chunks handed back; a clone is
// the cheap way to a second evaluator (it shares the prepared matched
// streams instead of rebuilding them, as a NewEval per chunk would). The
// prepared Eval is created by the job's first chunk and everything is
// dropped after its last, so only the jobs being solved hold replay state;
// pools kept open across the whole task list cost a heatmap a quarter more
// peak memory.
type evalPool struct {
	mu    sync.Mutex
	g     *analytic.Graph
	proto *analytic.Eval
	free  []*analytic.Eval
	left  int // chunks not yet finished
}

// get lends an evaluator: a returned clone if one is idle, else a new
// clone of the prepared Eval (Clone only reads it, and nobody solves on
// it, so cloning under the lock is safe).
func (p *evalPool) get() *analytic.Eval {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		ev := p.free[n-1]
		p.free = p.free[:n-1]
		return ev
	}
	if p.proto == nil {
		p.proto = analytic.NewEval(p.g)
		p.proto.PrepareMatched()
	}
	return p.proto.Clone()
}

// put takes an evaluator back after a finished chunk; after the variant's
// last chunk the pool lets go of everything.
func (p *evalPool) put(ev *analytic.Eval) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.left--
	if p.left == 0 {
		p.proto, p.free = nil, nil
		return
	}
	p.free = append(p.free, ev)
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

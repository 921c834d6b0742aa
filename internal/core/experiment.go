// Package core is the paper's sensitivity study itself: it sweeps the
// two-layer interconnect's wide-area latency and bandwidth over four orders
// of magnitude, runs each application in its unoptimized and cluster-aware
// variants, and reports speedup relative to the all-Myrinet single-cluster
// run — regenerating every table and figure in the evaluation section.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"twolayer/internal/apps"
	"twolayer/internal/apps/asp"
	"twolayer/internal/apps/awari"
	"twolayer/internal/apps/barneshut"
	"twolayer/internal/apps/fft"
	"twolayer/internal/apps/tsp"
	"twolayer/internal/apps/water"
	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
	"twolayer/internal/wantopo"
)

// Apps returns the six-application suite in the paper's Table 1 order.
func Apps() []apps.Info {
	return []apps.Info{
		water.Info, barneshut.Info, tsp.Info, asp.Info, awari.Info, fft.Info,
	}
}

// AppByName finds a registry entry by its paper name.
func AppByName(name string) (apps.Info, error) {
	for _, a := range Apps() {
		if a.Name == name {
			return a, nil
		}
	}
	return apps.Info{}, fmt.Errorf("core: unknown application %q", name)
}

// appsByName resolves application names in order; a repeated name is an
// error, since it would only repeat the application's rows.
func appsByName(names []string) ([]apps.Info, error) {
	if n, ok := firstRepeat(names); ok {
		return nil, fmt.Errorf("core: application %q repeated", n)
	}
	suite := make([]apps.Info, len(names))
	for i, n := range names {
		var err error
		if suite[i], err = AppByName(n); err != nil {
			return nil, err
		}
	}
	return suite, nil
}

// firstRepeat returns the first element of xs equal to an earlier one.
func firstRepeat[T comparable](xs []T) (T, bool) {
	seen := make(map[T]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return x, true
		}
		seen[x] = true
	}
	var zero T
	return zero, false
}

// The paper's sweep axes (Section 5.1): wide-area bandwidth in bytes/s and
// one-way latency.
var (
	// Bandwidths are the delay-loop settings of the ATM links.
	Bandwidths = []float64{6.3e6, 2.6e6, 0.95e6, 0.3e6, 0.1e6, 0.03e6}
	// Latencies are the one-way wide-area latencies.
	Latencies = []sim.Time{
		500 * sim.Microsecond, 1300 * sim.Microsecond, 3300 * sim.Microsecond,
		10 * sim.Millisecond, 30 * sim.Millisecond,
		100 * sim.Millisecond, 300 * sim.Millisecond,
	}
)

// DefaultSeed keeps every experiment deterministic.
const DefaultSeed = 42

// Experiment is one configured run.
type Experiment struct {
	App       apps.Info
	Scale     apps.Scale
	Optimized bool
	Topo      *topology.Topology
	Params    network.Params
	// WAN selects the wide-area graph (see wantopo): nil means the paper's
	// fully connected clique, the only shape the original testbed had.
	// Cross-cluster messages follow the graph's routes store-and-forward
	// through intermediate gateways.
	WAN *wantopo.WAN
	// Verify re-checks the computed output against the sequential
	// reference; disable it inside large sweeps (correctness is covered by
	// the test suite).
	Verify bool
	// Trace, if non-nil, records every message and compute span; a
	// *trace.Stream aggregates them online in constant memory.
	Trace trace.Sink
	// Faults injects deterministic wide-area faults; the zero value leaves
	// the run byte-identical to a fault-free one. Faulty runs route
	// wide-area traffic through the reliable transport and remain fully
	// deterministic, so they cache like any other run.
	Faults faults.Params
	// Regime applies a deterministic time-varying network regime (diurnal
	// load, congestion, latency and bandwidth variability, whole-cluster
	// churn; see package regime). The zero value leaves the run
	// byte-identical to a regime-free one. Regime runs are fully
	// deterministic and cache like any other run.
	Regime regime.Params
	// Adaptive lets the runtime layers and applications adapt to the regime
	// (measured-RTT transport tuning, collective style switching,
	// churn-aware work stealing). Meaningless without a Regime.
	Adaptive bool
	// Budget bounds the run (event/virtual-time ceilings, livelock
	// watchdog). Budgets are pure supervision: a run that completes within
	// them is bit-identical to an unbudgeted one, so Budget is deliberately
	// NOT part of the cache key. Zero means unlimited — the default for
	// golden runs, which therefore keep their historical cache keys.
	Budget sim.Budget
	// Ctx, if non-nil, imposes a wall-clock deadline: when it expires the
	// run stops with a sim.StopDeadline error. Like Budget it never affects
	// a run that completes, and is not part of the cache key.
	Ctx context.Context
	// Workers is ignored: every run is one sequential kernel. The field
	// stays so callers that set it keep compiling.
	Workers int
}

// DefaultWorkers reports the in-run worker count of a run: always 0, the
// sequential kernel.
func DefaultWorkers() int { return 0 }

// options is the one translation of the experiment into run options: Run
// executes them and Validate checks them.
func (x Experiment) options() par.Options {
	return par.Options{
		Params:   x.Params,
		WAN:      x.WAN,
		Trace:    x.Trace,
		Faults:   x.Faults,
		Regime:   x.Regime,
		Adaptive: x.Adaptive,
		Budget:   x.Budget,
	}
}

// Validate reports whether the capability table (par.Check) accepts the
// run: a *par.Unsupported naming the refused combination, or nil. It does
// no work.
func (x Experiment) Validate() error { return x.check(0) }

// check is Validate with extra features asked of the run; a recording
// (RecordedGraph) adds par.Record.
func (x Experiment) check(extra par.Feature) error {
	return par.Check(par.FeaturesOf(x.options()) | extra)
}

// Run executes the experiment.
func (x Experiment) Run() (par.Result, error) {
	inst := x.App.New(x.Scale, x.Topo.Procs())
	res, err := par.RunWithContext(x.Ctx, x.Topo, x.options(), inst.Job(x.Optimized))
	if err != nil {
		return res, fmt.Errorf("core: %s (opt=%v) on %v: %w", x.App.Name, x.Optimized, x.Topo, err)
	}
	if x.Verify {
		if err := inst.Check(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// Baselines looks up single-cluster reference runtimes per application,
// the TL of the paper's relative-speedup metric. It is safe for concurrent
// use: every lookup is one run through the process-wide DefaultCache, so
// baselines are shared with every sweep.
type Baselines struct {
	scale apps.Scale
}

// NewBaselines returns the baselines of the given scale.
func NewBaselines(scale apps.Scale) *Baselines {
	return &Baselines{scale: scale}
}

// SingleCluster returns the runtime of app on one all-Myrinet cluster of
// the given size (the unoptimized program; on a single cluster the
// cluster-aware changes are no-ops by construction).
func (b *Baselines) SingleCluster(app apps.Info, procs int) (sim.Time, error) {
	return singleCluster(app, b.scale, procs, DefaultCache)
}

// singleCluster is the one baseline run: app unoptimized on a single
// all-Myrinet cluster of procs processors, through cache and unsupervised.
func singleCluster(app apps.Info, scale apps.Scale, procs int, cache *RunCache) (sim.Time, error) {
	res, err := Experiment{
		App: app, Scale: scale, Topo: topology.SingleCluster(procs), Params: network.DefaultParams(),
	}.RunCached(cache)
	return res.Elapsed, err
}

// RelativeSpeedup is the paper's Figure 3 metric: TL/TM as a percentage,
// where TL is the single-cluster runtime with the same processor count and
// TM the multi-cluster runtime.
func RelativeSpeedup(singleCluster, multiCluster sim.Time) float64 {
	if multiCluster <= 0 {
		return 0
	}
	return 100 * float64(singleCluster) / float64(multiCluster)
}

// CommTimePercent is the paper's Figure 4 metric: (TM-TL)/TM as a
// percentage — the share of the multi-cluster runtime attributable to
// inter-cluster communication.
func CommTimePercent(singleCluster, multiCluster sim.Time) float64 {
	if multiCluster <= 0 {
		return 0
	}
	v := 100 * float64(multiCluster-singleCluster) / float64(multiCluster)
	if v < 0 {
		return 0
	}
	return v
}

// budget is the process-wide core budget: one slot per core Go schedules
// on, shared by every sweep in the process. A sweep cell holds one slot for
// as long as it runs (a recording holds recordingSlots), and a cell starts
// no goroutines of its own: every compute goroutine is a forEachHolding
// worker holding slots, so they never outnumber the slots, and a cell never
// waits for the budget it already holds part of. Results are collected into
// per-index slots, so the budget's size never affects output.
type budget struct {
	mu         sync.Mutex
	freed      *sync.Cond
	size, free int
}

func newBudget(n int) *budget {
	n = max(n, 1)
	b := &budget{size: n, free: n}
	b.freed = sync.NewCond(&b.mu)
	return b
}

// cores is the budget every sweep draws on. It has GOMAXPROCS slots, the
// cores Go runs goroutines on, which is also how many sets of run slabs
// internal/par parks between cells; the coordinating goroutine only blocks
// on its cells.
var cores = newBudget(runtime.GOMAXPROCS(0))

// acquire waits until n slots, at most the whole budget, are free
// together and takes them.
func (b *budget) acquire(n int) {
	b.mu.Lock()
	for b.free < n {
		b.freed.Wait()
	}
	b.free -= n
	b.mu.Unlock()
}

func (b *budget) release(n int) {
	b.mu.Lock()
	b.free += n
	b.mu.Unlock()
	b.freed.Broadcast()
}

// forEach runs fn(i) for i in [0,n), each call holding core-budget slots.
// Every shard runs to completion even if others fail, and all errors are
// reported (joined in index order), so one bad cell in a sweep cannot mask
// another. A call from inside another call's fn runs inline (see
// forEachHolding).
func forEach(n int, fn func(i int) error) error {
	return forEachWeighted(n, nil, nil, fn)
}

// forEachWeighted is forEach with longest-job-first scheduling: when
// weight is non-nil, indices are dispatched in decreasing weight order.
// Sweep cells differ in cost by orders of magnitude (a 300 ms-latency
// unoptimized Awari run simulates far more virtual time than a fast-WAN
// TSP run); starting the heavy cells first keeps the pool's tail short
// instead of leaving one straggler running alone at the end.
//
// When label is non-nil, a failing shard's error is wrapped with its cell
// identity, so a joined sweep error names exactly which cells failed
// instead of presenting an anonymous pile.
func forEachWeighted(n int, weight func(i int) float64, label func(i int) string, fn func(i int) error) error {
	return forEachHolding(1, n, weight, label, fn)
}

// forEachHolding is forEachWeighted with each call holding the given
// number of core-budget slots (at least one, at most the whole budget).
//
// Workers pull their calls. Each worker takes its slots once, then claims
// the next index of the dispatch order from one counter until the list
// runs out, gives its slots back and exits. The dispatcher only starts
// workers, at most as many as the budget runs at once, taking a worker's
// slots before starting it; it stops when slots it has just taken find
// the list empty. So every worker holds slots for its whole life, the
// workers never outnumber the calls the budget can run at once, and a
// warm sweep whose cells are disk replays pays for one goroutine and one
// slot handover per core instead of per cell. Every worker exits before
// forEachHolding returns.
//
// A call made by one of these workers, from inside a task, is nested: it
// runs its calls one after another on the worker, inside the slots the
// worker holds. Waiting for more slots there could deadlock: once every
// slot is held by a task waiting for another, none is ever released. So
// the workers stay the only compute goroutines, whatever nests.
func forEachHolding(slots, n int, weight func(i int) float64, label func(i int) string, fn func(i int) error) error {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if weight != nil {
		w := make([]float64, n)
		for i := range w {
			w[i] = weight(i)
		}
		sort.SliceStable(order, func(a, b int) bool { return w[order[a]] > w[order[b]] })
	}
	errs := make([]error, n)
	run := func(i int) {
		if label != nil {
			errs[i] = labelled(label(i), func() error { return fn(i) })
		} else {
			errs[i] = fn(i)
		}
	}
	if _, nested := workers.Load(goid()); nested {
		for _, i := range order {
			run(i)
		}
		return errors.Join(errs...)
	}
	b := cores
	slots = max(1, min(slots, b.size))
	var next atomic.Int64 // the next position in order to claim
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		id := goid()
		workers.Store(id, struct{}{})
		defer workers.Delete(id)
		for k := next.Add(1) - 1; k < int64(n); k = next.Add(1) - 1 {
			run(order[k])
		}
		b.release(slots)
	}
	for w := min(n, b.size/slots); w > 0; w-- {
		b.acquire(slots)
		if next.Load() >= int64(n) {
			b.release(slots)
			break
		}
		wg.Add(1)
		go work()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// workers holds the goroutine ids of the running forEachHolding workers.
var workers sync.Map

// goid is the calling goroutine's id, read off its stack header
// ("goroutine 17 [running]:").
func goid() uint64 {
	var buf [32]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// labelled runs fn under a pprof label naming the cell, so a -cpuprofile
// of a sweep attributes samples per cell (`pprof -tagfocus`) instead of one
// flat pool, and prefixes fn's error with the cell's name.
func labelled(label string, fn func() error) error {
	var err error
	pprof.Do(context.Background(), pprof.Labels("cell", label), func(context.Context) {
		err = fn()
	})
	if err != nil {
		err = fmt.Errorf("%s: %w", label, err)
	}
	return err
}

// cell is one simulated cell of a study.
type cell struct {
	// label names the cell in errors, pprof labels and the failure list.
	label string
	x     Experiment
	// weight orders dispatch, heaviest first; equal weights keep index
	// order. Cells differ in cost by orders of magnitude (a 300 ms-latency
	// unoptimized Awari run simulates far more virtual time than a
	// fast-WAN TSP run), and starting the heavy ones first keeps a lone
	// straggler from running at the end.
	weight float64
}

// outcome is what runCells hands back for one cell: the run, and the
// single-cluster time of its application on as many processors (zero
// without baselines), or the kind of failure the policy gave up on the
// cell with.
type outcome struct {
	res  par.Result
	tl   sim.Time
	fail string
}

// runCells is the one runner of the simulated studies. It builds each of
// the n cells with at, exactly once, then
//
//  1. validates every cell before anything runs;
//  2. with baselines set, runs the single-cluster baseline of each
//     distinct (application, processors) pair once, through cache and
//     unsupervised, and scales each cell's weight by its baseline (a cell
//     costs more the longer its application runs);
//  3. dispatches the cells heaviest first on the core budget, each under
//     a pprof label;
//  4. runs each cell through pol and hands its outcome to got, which runs
//     concurrently for different cells.
//
// The built cells are kept for dispatch, a few hundred bytes each (label
// and Experiment): for a cell that is a disk replay, building it is a
// sizeable share of its cost.
func runCells(n int, at func(k int) cell, baselines bool, pol *RunPolicy, cache *RunCache, got func(k int, o outcome)) error {
	type baseline struct {
		app   apps.Info
		scale apps.Scale
		procs int
	}
	cells := make([]cell, n)
	for k := range cells {
		cells[k] = at(k)
	}
	var bases []baseline
	which := make([]int, n) // which: k's index in bases
	for k := range cells {
		c := &cells[k]
		if err := c.x.Validate(); err != nil {
			return err
		}
		if baselines {
			b := baseline{c.x.App, c.x.Scale, c.x.Topo.Procs()}
			which[k] = slices.IndexFunc(bases, func(o baseline) bool {
				return o.app.Name == b.app.Name && o.scale == b.scale && o.procs == b.procs
			})
			if which[k] < 0 {
				which[k] = len(bases)
				bases = append(bases, b)
			}
		}
	}
	tls := make([]sim.Time, len(bases))
	err := forEachWeighted(len(bases), nil,
		func(i int) string { return fmt.Sprintf("%s baseline on %d", bases[i].app.Name, bases[i].procs) },
		func(i int) (err error) {
			tls[i], err = singleCluster(bases[i].app, bases[i].scale, bases[i].procs, cache)
			return err
		})
	if err != nil {
		return err
	}
	if baselines {
		for k := range cells {
			cells[k].weight *= float64(tls[which[k]])
		}
	}
	return forEachWeighted(n, func(k int) float64 { return cells[k].weight }, nil, func(k int) error {
		c := &cells[k]
		return labelled(c.label, func() error {
			res, fail, err := pol.run(c.label, c.x, cache)
			if err != nil {
				return err
			}
			o := outcome{res: res}
			if baselines {
				o.tl = tls[which[k]]
			}
			if fail != nil {
				o.fail = fail.Kind
			}
			got(k, o)
			return nil
		})
	})
}

// answer answers every point of every job of a study (Figure 3, Figure 4,
// the shape study), and a chooses who does. With a nil a every point is a
// runCells cell labelled "<job label> lat=... bw=...MB/s", weighted 1 + its
// wide-area latency in nanoseconds, with the job's baseline; with a
// non-nil a, solveAnalytic answers every job from its recording. Either
// way the study reads one analyticAnswer per job, in job order. On an
// error the simulator's answers still come back, with every cell that ran
// filled in; the analytic answerer returns none.
func answer(jobs []analyticJob, a *AnalyticOptions, pol *RunPolicy, cache *RunCache) ([]analyticAnswer, error) {
	if a != nil {
		answers, err := solveAnalytic(jobs, pol, cache, *a)
		for k, r := range answers {
			if r.Fail != nil {
				answers[k].Failed = slices.Repeat([]string{r.Fail.Kind}, len(jobs[k].pts))
			}
		}
		return answers, err
	}
	// Job j's points are cells off[j] to off[j+1]-1.
	off := make([]int, len(jobs)+1)
	for j, job := range jobs {
		off[j+1] = off[j] + len(job.pts)
	}
	locate := func(k int) (j, p int) {
		j = sort.SearchInts(off, k+1) - 1
		return j, k - off[j]
	}
	n := off[len(jobs)]
	answers := make([]analyticAnswer, len(jobs))
	elapsed, failed := make([]sim.Time, n), make([]string, n)
	err := runCells(n, func(k int) cell {
		j, p := locate(k)
		x := jobs[j].x
		x.Params = jobs[j].pts[p]
		// Slow links stretch the simulated execution, which the
		// simulator must step through.
		return cell{label: pointLabel(jobs[j].label, x.Params), x: x, weight: 1 + float64(x.Params.WANLatency)}
	}, true, pol, cache, func(k int, o outcome) {
		elapsed[k], failed[k] = o.res.Elapsed, o.fail
		if j, p := locate(k); p == 0 {
			answers[j].Baseline = o.tl
		}
	})
	for j := range answers {
		lo, hi := off[j], off[j+1]
		answers[j].Elapsed = elapsed[lo:hi:hi]
		if slices.ContainsFunc(failed[lo:hi], func(f string) bool { return f != "" }) {
			answers[j].Failed = failed[lo:hi:hi]
		}
	}
	return answers, err
}

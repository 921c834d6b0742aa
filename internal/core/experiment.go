// Package core is the paper's sensitivity study itself: it sweeps the
// two-layer interconnect's wide-area latency and bandwidth over four orders
// of magnitude, runs each application in its unoptimized and cluster-aware
// variants, and reports speedup relative to the all-Myrinet single-cluster
// run — regenerating every table and figure in the evaluation section.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
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
	// Workers controls in-run parallelism: each cluster becomes a logical
	// process, synchronized in conservative time windows under the
	// wide-area lookahead (see par.Options.Workers). Zero defers to the
	// process-wide default (SetDefaultWorkers); negative forces sequential
	// execution. Results are bit-identical at every worker count, which is
	// why Workers — like Budget and Ctx — is deliberately NOT part of the
	// cache key: cached entries are valid whatever engine produced them.
	Workers int
}

// defaultWorkers is the process-wide in-run worker default consulted when
// Experiment.Workers is zero. It starts at 0, and the CLIs' default
// (-workers -1) leaves it there: sweeps are sets of independent cells, and
// one sequential kernel per core finishes them sooner than window workers
// inside one cell do, so in-run workers are opt-in (-workers N).
var defaultWorkers atomic.Int32

// SetDefaultWorkers sets the process-wide default for Experiment.Workers ==
// 0. Values below 1 select sequential execution. A sweep cell holds this
// many slots of the core budget, so set it before starting sweeps.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int32(n))
}

// DefaultWorkers reports the current process-wide default.
func DefaultWorkers() int { return int(defaultWorkers.Load()) }

// workers resolves the experiment's effective in-run worker count.
func (x Experiment) workers() int {
	switch {
	case x.Workers < 0:
		return 0
	case x.Workers > 0:
		return x.Workers
	}
	return DefaultWorkers()
}

// Run executes the experiment.
func (x Experiment) Run() (par.Result, error) {
	inst := x.App.New(x.Scale, x.Topo.Procs())
	res, err := par.RunWithContext(x.Ctx, x.Topo, par.Options{
		Params:   x.Params,
		WAN:      x.WAN,
		Seed:     DefaultSeed,
		Trace:    x.Trace,
		Faults:   x.Faults,
		Regime:   x.Regime,
		Adaptive: x.Adaptive,
		Budget:   x.Budget,
		Workers:  x.workers(),
	}, inst.Job(x.Optimized))
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

// Baselines caches single-cluster reference runtimes per application, the
// TL of the paper's relative-speedup metric. It is safe for concurrent use.
// The underlying runs go through a RunCache, so baselines are shared across
// Baselines instances (and with any other sweep using the same cache).
type Baselines struct {
	scale apps.Scale
	runs  *RunCache
	mu    sync.Mutex
	cache map[string]sim.Time
}

// NewBaselines creates an empty cache for the given scale, backed by the
// process-wide DefaultCache.
func NewBaselines(scale apps.Scale) *Baselines {
	return NewBaselinesCached(scale, DefaultCache)
}

// NewBaselinesCached is NewBaselines with an explicit run cache (nil
// disables run memoization).
func NewBaselinesCached(scale apps.Scale, runs *RunCache) *Baselines {
	return &Baselines{scale: scale, runs: runs, cache: make(map[string]sim.Time)}
}

// SingleCluster returns the runtime of app on one all-Myrinet cluster of
// the given size (the unoptimized program; on a single cluster the
// cluster-aware changes are no-ops by construction).
func (b *Baselines) SingleCluster(app apps.Info, procs int) (sim.Time, error) {
	key := fmt.Sprintf("%s/%d", app.Name, procs)
	b.mu.Lock()
	if v, ok := b.cache[key]; ok {
		b.mu.Unlock()
		return v, nil
	}
	b.mu.Unlock()
	res, err := Experiment{
		App: app, Scale: b.scale, Optimized: false,
		Topo: topology.SingleCluster(procs), Params: network.DefaultParams(),
	}.RunCached(b.runs)
	if err != nil {
		return 0, err
	}
	b.mu.Lock()
	b.cache[key] = res.Elapsed
	b.mu.Unlock()
	return res.Elapsed, nil
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

// budget is the process-wide core budget: one slot per CPU, shared by every
// sweep in the process. A sweep cell holds slots for as long as it runs
// (forEachWeighted: one, or its in-run worker count when -workers N forces
// the windowed engine), and fan-out nested inside a cell (solver shards, see
// solveSharded) borrows only slots that are idle at that moment and
// otherwise runs inline. So compute goroutines never outnumber the slots,
// and a cell never waits for the budget it already holds part of. Results
// are collected into per-index slots, so the budget's size never affects
// output.
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

// cores is the budget every sweep draws on. All cores are in it: the
// coordinating goroutine only blocks on its cells.
var cores = newBudget(runtime.NumCPU())

// acquire waits until n slots (at most the whole budget, at least one) are
// free together, takes them, and returns how many it took.
func (b *budget) acquire(n int) int {
	n = max(1, min(n, b.size))
	b.mu.Lock()
	for b.free < n {
		b.freed.Wait()
	}
	b.free -= n
	b.mu.Unlock()
	return n
}

// tryAcquire takes up to n idle slots without waiting and returns how many
// it got, possibly none.
func (b *budget) tryAcquire(n int) int {
	b.mu.Lock()
	n = max(0, min(n, b.free))
	b.free -= n
	b.mu.Unlock()
	return n
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
// another.
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
	return forEachHolding(DefaultWorkers(), n, weight, label, fn)
}

// forEachHolding is forEachWeighted with each call holding the given
// number of core-budget slots (at least one, at most the whole budget).
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
	var wg sync.WaitGroup
	for _, i := range order {
		i := i
		wg.Add(1)
		held := cores.acquire(slots)
		go func() {
			defer wg.Done()
			defer cores.release(held)
			var err error
			if label != nil {
				// The cell identity doubles as a pprof label, so a
				// -cpuprofile of a sweep attributes samples per cell
				// (`pprof -tagfocus`) instead of one flat pool.
				pprof.Do(context.Background(), pprof.Labels("cell", label(i)), func(context.Context) {
					err = fn(i)
				})
				if err != nil {
					err = fmt.Errorf("%s: %w", label(i), err)
				}
			} else {
				err = fn(i)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

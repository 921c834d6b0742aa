package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"twolayer/internal/apps"
	"twolayer/internal/cliutil"
	"twolayer/internal/core"
	"twolayer/internal/par"
	"twolayer/internal/topology"
)

// processStart is taken as early as a Go program can: package
// initialization. setup_s runs from here to the first timed pass.
var processStart = time.Now()

// Child modes. Every mode runs in its own process, because the apps
// memoize their inputs process-wide (twiddle tables, sorted clouds,
// pristine matrices): only a fresh process is cold, and only a fresh
// process has a clean VmHWM and MemStats.
const (
	modePass    = "pass"    // set-up, then the timed pass or passes
	modeSetup   = "setup"   // set-up only: one more setup_s sample
	modeSpans   = "spans"   // set-up, then the traced one-goroutine replay
	modeProfile = "profile" // set-up, then passes under the CPU profiler
	modeUnits   = "units"   // set-up, then the unit costs
)

// passSample is one timed pass (or, for the unit costs, one timed round).
type passSample struct {
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	Mallocs float64 `json:"-"` // heap objects allocated; the unit costs' allocs/op
}

// childReport is what a child prints, as one JSON line, for the driver.
type childReport struct {
	Workload  string       `json:"workload"`
	Mode      string       `json:"mode"`
	Workers   int          `json:"workers_resolved"`
	SetupS    float64      `json:"setup_s"`
	Passes    []passSample `json:"passes,omitempty"`
	PeakRSSMB float64      `json:"peak_rss_mb"`
	// OutputSHA is the sha256 of the rendered output; every pass of a
	// child rendered the same bytes or the child failed.
	OutputSHA string `json:"output_sha,omitempty"`
	// Gate is the reference verdict: match, stale_reference, or unchecked
	// (non-default seed, or no reference).
	Gate        string `json:"gate,omitempty"`
	FailedCells int    `json:"failed_cells"`
	// Cache is the run cache's view of one real pass (profile mode) or of
	// the replay (spans mode); the driver requires them to agree, which
	// pins the unrolled cell lists to the entry points they unroll.
	Cache   *core.CacheStats   `json:"cache,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Err     string             `json:"err,omitempty"`
}

// childMain runs one child and prints its report. A failed gate or pass is
// reported in Err and by a non-zero exit.
func childMain(name, mode, dir string, opt options, update bool) int {
	rep := childReport{Workload: name, Mode: mode}
	err := runChild(&rep, dir, opt, update)
	if err != nil {
		rep.Err = err.Error()
	}
	rep.PeakRSSMB = peakRSSMB()
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s (%s): %v\n", name, mode, err)
		return 1
	}
	return 0
}

func runChild(rep *childReport, dir string, opt options, update bool) error {
	w, err := workloadByName(rep.Workload)
	if err != nil {
		return err
	}
	// The engine is configured exactly as the CLIs configure it at default
	// flags; what is measured is what `go run ./cmd/figures` gives a user.
	if err := cliutil.ApplyWorkers(-1); err != nil {
		return err
	}
	rep.Workers = core.DefaultWorkers()
	if err := goldenGate(); err != nil {
		return err
	}
	in := makeInputs(w, opt.seed, opt.smoke)
	var populated []byte
	if w.Warm {
		cache, err := diskCache(dir)
		if err != nil {
			return err
		}
		if populated, err = w.pass(in, cache); err != nil {
			return fmt.Errorf("populating the disk cache: %w", err)
		}
	}
	rep.SetupS = time.Since(processStart).Seconds()

	switch rep.Mode {
	case modeSetup:
		return nil
	case modeUnits:
		rep.Metrics, err = unitCosts(dir)
		return err
	case modeSpans:
		return runSpans(rep, w, in, dir)
	case modeProfile:
		return runProfile(rep, w, in, dir)
	}

	var out []byte
	if w.Warm {
		out, err = warmPasses(rep, w, in, dir, populated, opt)
	} else {
		out, err = coldPass(rep, w, in, dir)
	}
	if err != nil {
		return err
	}
	sum := sha256.Sum256(out)
	rep.OutputSHA = hex.EncodeToString(sum[:])
	rep.FailedCells = bytes.Count(out, []byte("FAILED("))
	if update {
		return writeReference(w, out)
	}
	rep.Gate, err = referenceGate(w, in, out)
	return err
}

// goldenGate reproduces the 11 pinned Tiny runs bit for bit: a child whose
// build does not is not measuring this repository's simulator.
func goldenGate() error {
	for _, g := range core.GoldenRuns {
		app, err := core.AppByName(g.App)
		if err != nil {
			return err
		}
		res, err := core.Experiment{
			App: app, Scale: apps.Tiny, Optimized: g.Optimized,
			Topo: topology.DAS(), Params: core.ReferenceParams(),
		}.Run()
		if err != nil {
			return fmt.Errorf("golden %s (optimized=%v): %w", g.App, g.Optimized, err)
		}
		got := core.GoldenRun{App: g.App, Optimized: g.Optimized, Elapsed: res.Elapsed,
			Events: res.Events, WANMsgs: res.WAN.Messages, WANBytes: res.WAN.Bytes}
		if got != g {
			return fmt.Errorf("golden gate: got %+v, pinned %+v", got, g)
		}
	}
	return nil
}

// diskCache returns a fresh run cache whose persistent layer is dir. The
// benchmark never touches core.DefaultCache or results/cache/.
func diskCache(dir string) (*core.RunCache, error) {
	cache := core.NewRunCache()
	return cache, cache.SetDir(dir)
}

// timed brackets fn with wall clock, process CPU time and the allocator's
// running totals.
func timed(fn func() error) (passSample, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return passSample{
		WallS:   wall.Seconds(),
		CPUS:    c1 - c0,
		AllocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		Mallocs: float64(m1.Mallocs - m0.Mallocs),
	}, err
}

func coldPass(rep *childReport, w *workload, in inputs, dir string) ([]byte, error) {
	cache, err := diskCache(dir)
	if err != nil {
		return nil, err
	}
	var out []byte
	s, err := timed(func() (err error) {
		out, err = w.pass(in, cache)
		return err
	})
	rep.Passes = append(rep.Passes, s)
	return out, err
}

// warmPasses alternates, for the given seconds, a disk replay (a new
// process's view: fresh cache, populated directory) and the same sweep
// again on that cache (memory hits). The end-to-end metrics are the disk
// replays; the memory passes are checked the same way and timed by the
// traced run (core.warm_mem_pass_ms).
//
// At least 200 disk replays run however short the time, so that wall_p95_s
// is always a percentile with ten samples beyond it, never a maximum.
func warmPasses(rep *childReport, w *workload, in inputs, dir string, want []byte, opt options) ([]byte, error) {
	atLeast := 200
	if opt.smoke {
		atLeast = 1
	}
	for start := time.Now(); len(rep.Passes) < atLeast || time.Since(start).Seconds() < opt.seconds; {
		cache, err := diskCache(dir)
		if err != nil {
			return nil, err
		}
		for lap := 0; lap < 2; lap++ {
			var out []byte
			s, err := timed(func() (err error) {
				out, err = w.pass(in, cache)
				return err
			})
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(out, want) {
				return nil, errors.New("warm pass rendered different bytes than the pass that filled the cache")
			}
			cells := uint64(w.Cells)
			if st := cache.CacheStats(); st.DiskHits != cells || st.Misses != 0 || st.Hits != uint64(lap)*cells {
				return nil, fmt.Errorf("warm lap %d: cache saw %+v, want %d disk hits, %d memory hits, 0 simulated", lap, st, cells, uint64(lap)*cells)
			}
			if lap == 0 {
				rep.Passes = append(rep.Passes, s)
			}
		}
	}
	return want, nil
}

// runProfile is group (C): normal passes under the CPU profiler, samples
// bucketed by the package of the leaf function. Short workloads run several
// passes into one profile (each cold pass into an empty directory of its
// own), so that the shares rest on a few hundred samples.
func runProfile(rep *childReport, w *workload, in inputs, dir string) error {
	n := max(w.ProfilePasses, 1)
	var profile bytes.Buffer
	err := pprof.StartCPUProfile(&profile)
	if err != nil {
		return err
	}
	var walls []float64
	var cache *core.RunCache
	for i := 0; i < n && err == nil; i++ {
		passDir := dir
		if !w.Warm {
			passDir = filepath.Join(dir, fmt.Sprint("pass", i))
		}
		if cache, err = diskCache(passDir); err != nil {
			break
		}
		var s passSample
		s, err = timed(func() error {
			_, err := w.pass(in, cache)
			return err
		})
		walls = append(walls, s.WallS)
	}
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	leaves, err := leafSamples(profile.Bytes())
	if err != nil {
		return err
	}
	rep.Metrics = cpuBudget(leaves, n)
	rep.Metrics["pass_wall_s"] = median(walls)
	st := cache.CacheStats()
	rep.Cache = &st
	return nil
}

// runSpans is group (B): the workload's cells, one at a time on this
// goroutine, with a span at each layer boundary and the run's own counters
// summed beside them.
func runSpans(rep *childReport, w *workload, in inputs, dir string) error {
	cache, err := diskCache(dir)
	if err != nil {
		return err
	}
	t := newTracer()
	m := make(map[string]float64)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	if w.cells != nil {
		err = replayCells(t, m, 0, w.cells(in), cache)
	} else {
		err = replayHeatmap(t, m, in, cache)
	}
	m["replay_wall_s"] = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	st := cache.CacheStats()
	rep.Cache = &st
	if w.Warm {
		// Set-up filled the directory, so that lap was the disk replay;
		// the same cells again on the same cache are the memory hits.
		lap := time.Now()
		if err := replayCells(t, m, w.Cells, w.cells(in), cache); err != nil {
			return err
		}
		m["core.warm_mem_pass_ms"] = float64(time.Since(lap).Microseconds()) / 1e3
	}
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	var cellMS []float64
	for _, s := range t.spans {
		if s.Name == "core.cell" {
			cellMS = append(cellMS, float64(s.End-s.Start)/1e6)
		}
	}
	m["core.cells"] = float64(len(cellMS))
	m["core.cell_ms_p50"] = median(cellMS)
	m["core.cell_ms_p95"] = percentile(cellMS, 0.95)
	for _, name := range []string{"apps.new", "par.run", "core.cache_store", "core.cache_load", "analytic.record", "analytic.solve"} {
		m[name+"_s"] = t.total(name).Seconds()
	}
	if ev := m["sim.events"]; ev > 0 {
		m["sim.host_ns_per_event"] = m["par.run_s"] * 1e9 / ev
	}
	end := cache.CacheStats()
	m["core.cache_mem_hits"] = float64(end.Hits)
	m["core.cache_disk_hits"] = float64(end.DiskHits)
	m["core.cache_simulated"] = float64(end.Misses)
	m["core.cache_stale"] = float64(end.Stale)
	if w.Name == "fig3_small_cold" {
		// Accuracy beside speed: the analytic engine against the simulated
		// panels this replay just produced, on the same grid.
		if err := analyticError(m, in, cache); err != nil {
			return err
		}
	}
	m["analytic.graphs_recorded"] = float64(cache.CacheStats().GraphMisses)
	rep.Metrics = m

	out := filepath.Join(repoRoot(), "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	return t.write(filepath.Join(out, "trace-"+w.Name+".json"), w.Name)
}

// replayCells runs each experiment through the cache as its sweep would,
// numbering the cells from first and classifying each by what the cache did
// with it.
func replayCells(t *tracer, m map[string]float64, first int, xs []core.Experiment, cache *core.RunCache) error {
	for i, x := range xs {
		cell := first + i
		before := cache.CacheStats()
		var res par.Result
		id, simulated, runEnd, err := t.cell(cell, "core.cell", x, func(x core.Experiment) (err error) {
			res, err = x.RunCached(cache)
			return err
		})
		if err != nil {
			return fmt.Errorf("cell %d (%s): %w", cell, x.App.Name, err)
		}
		root := t.spans[id]
		switch {
		case simulated:
			// What follows the last rank's return is result assembly and
			// the disk store; the store dominates.
			t.add("core.cache_store", cell, id, runEnd, root.End)
			m["sim.events"] += float64(res.Events)
			m["network.wan_msgs"] += float64(res.WAN.Messages)
			m["network.wan_mb"] += float64(res.WAN.Bytes) / 1e6
			m["network.lan_msgs"] += float64(res.Intra.Messages)
			m["network.dropped"] += float64(res.Faults.Dropped + res.Faults.OutageDropped)
			m["par.retransmits"] += float64(res.Transport.Retransmits)
			m["par.timeouts"] += float64(res.Transport.Timeouts)
			m["par.acks"] += float64(res.Transport.Acks)
		case cache.CacheStats().DiskHits > before.DiskHits:
			t.add("core.cache_load", cell, id, root.Start, root.End)
		}
	}
	return nil
}

// replayHeatmap is the analytic workload's replay: the six baselines as
// cells, each variant's recording as its own span, then the real Heatmap
// call, which finds every graph and baseline in memory and so spends its
// time calibrating and solving.
func replayHeatmap(t *tracer, m map[string]float64, in inputs, cache *core.RunCache) error {
	var xs []core.Experiment
	for _, a := range core.Apps() {
		xs = append(xs, baseline(a, in.scale, topology.DAS().Procs()))
	}
	if err := replayCells(t, m, 0, xs, cache); err != nil {
		return err
	}
	cell := len(xs)
	for _, x := range variants() {
		x.Scale = in.scale
		_, _, _, err := t.cell(cell, "analytic.record", x, func(x core.Experiment) error {
			_, fail, err := cache.RecordedGraph(x.App.Name, x, nil)
			if err == nil && fail != nil {
				err = fail.Err
			}
			return err
		})
		if err != nil {
			return err
		}
		cell++
	}
	start := t.now()
	panels, reports, err := core.Heatmap(in.scale, core.HeatmapOptions{Size: in.heatSize, Cache: cache})
	t.add("analytic.solve", cell, -1, start, t.now())
	if err != nil {
		return err
	}
	countAnalytic(m, panels, reports)
	return nil
}

func countAnalytic(m map[string]float64, panels []core.Figure3Panel, reports []core.AnalyticReport) {
	for _, p := range panels {
		m["analytic.points_solved"] += float64(len(p.Latencies) * len(p.Bandwidths))
	}
	for _, r := range reports {
		m["analytic.graph_ops"] += float64(r.Nodes)
		if r.Engine == "frozen" {
			m["analytic.frozen_variants"]++
		} else {
			m["analytic.matched_variants"]++
		}
	}
}

// analyticError answers the Small grid analytically and reports its error
// against the simulated panels (every cell a memory hit by now): mean over
// variants of the mean relative error, and the single worst cell.
func analyticError(m map[string]float64, in inputs, cache *core.RunCache) error {
	simPanels, err := core.Figure3(in.scale, core.Figure3Options{Cache: cache})
	if err != nil {
		return err
	}
	anPanels, reports, err := core.Figure3Analytic(in.scale, core.Figure3Options{Cache: cache}, core.AnalyticOptions{})
	if err != nil {
		return err
	}
	countAnalytic(m, anPanels, reports)
	var sum, worst float64
	for v, an := range anPanels {
		var mean float64
		n := 0
		for i := range an.Rel {
			for j := range an.Rel[i] {
				ref := simPanels[v].Rel[i][j]
				if ref <= 0 {
					continue
				}
				d := 100 * math.Abs(an.Rel[i][j]-ref) / ref
				worst = max(worst, d)
				mean += d
				n++
			}
		}
		if n > 0 {
			sum += mean / float64(n)
		}
	}
	m["analytic.mean_err_pct"] = sum / float64(len(anPanels))
	m["analytic.max_err_pct"] = worst
	return nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM, the resident-set high-water mark of this address
// space. (getrusage's ru_maxrss would also carry the parent's peak across
// the exec.)
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// repoRoot is the directory holding go.mod, found upward from the working
// directory: the checkout root under `go run`, the package's parent under
// `go test`.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

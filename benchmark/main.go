// Command benchmark is the repository's one performance instrument: six
// sweep workloads timed end to end in fresh processes, and — in a separate
// traced run — the per-layer unit costs, spans, counts and CPU budget that
// explain those end-to-end numbers. See README.md in this directory.
//
//	go run ./benchmark [-seed 42] [-workload name,...] [-seconds 10] [-trace 1] [-o file]
//	go run ./benchmark -compare a.json b.json
//
// It claims no gain; it is what a later change's claim is measured with.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"twolayer/internal/cliutil"
	"twolayer/internal/core"
	"twolayer/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// options are the driver's settings; children inherit the ones that shape
// inputs.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	// smoke shrinks every workload to Tiny scale, skips the committed
	// references and takes one set-up sample: a seconds-long check that
	// the harness itself works, for the package's tests.
	smoke bool
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		opt      options
		names    = fs.String("workload", "", "comma-separated workloads to run (default: all six)")
		trace    = fs.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = the end-to-end run")
		out      = fs.String("o", "", "also write the results as JSON to this file")
		compare  = fs.Bool("compare", false, "compare two -o files (parent, change): exit 1 if any end-to-end metric is worse by more than its bound")
		update   = fs.Bool("update-reference", false, "re-render benchmark/testdata/figure3_small.csv from this tree and stamp it with the golden-table hash")
		child    = fs.String("child", "", "internal: run one child of this workload")
		mode     = fs.String("mode", modePass, "internal: child mode")
		childDir = fs.String("dir", "", "internal: the child's scratch directory")
	)
	fs.Int64Var(&opt.seed, "seed", defaultSeed, "workload seed: regime scenarios and warm lookup order")
	fs.Float64Var(&opt.seconds, "seconds", 10, "how long each workload keeps starting timed passes (at least one runs)")
	fs.BoolVar(&opt.smoke, "smoke", false, "Tiny-scale self-check of the harness, not a measurement")
	if err := fs.Parse(args); err != nil {
		return cliutil.ExitUsage
	}
	if *child != "" {
		return childMain(*child, *mode, *childDir, opt, *update)
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two files: parent.json change.json")
			return cliutil.ExitUsage
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if *trace != 0 && *trace != 1 || fs.NArg() != 0 || opt.seconds < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace is 0 or 1, -seconds is not negative, and there are no positional arguments")
		return cliutil.ExitUsage
	}
	opt.traced = *trace == 1

	selected := workloads
	if *names != "" {
		selected = nil
		for _, n := range strings.Split(*names, ",") {
			w, err := workloadByName(strings.TrimSpace(n))
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return cliutil.ExitUsage
			}
			selected = append(selected, w)
		}
	}
	d, err := newDriver(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return cliutil.ExitHarness
	}
	if *update {
		return d.updateReference()
	}

	rep := report{Header: d.header()}
	printHeader(stdout, rep.Header)
	var units map[string]float64
	if opt.traced {
		// Unit costs do not depend on the workload: once per run.
		if units, err = d.units(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: unit costs:", err)
		}
	}
	code := cliutil.ExitOK
	for _, w := range selected {
		var r result
		if opt.traced {
			r = d.traced(w, units)
		} else {
			r = d.untraced(w)
		}
		printResult(stdout, r)
		if !r.Correct {
			code = cliutil.ExitHarness
		}
		rep.Results = append(rep.Results, r)
	}
	if *out != "" {
		err := cliutil.WriteFileAtomic(*out, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return cliutil.ExitHarness
		}
	}
	if len(rep.Results) == 1 {
		fmt.Fprintln(stdout, rep.Results[0].contractLine())
	}
	return code
}

// header says what was measured and on what.
type header struct {
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	Commit      string  `json:"commit"`
	Fingerprint string  `json:"fingerprint"`
	Workers     int     `json:"workers_resolved"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Traced      bool    `json:"traced"`
}

// report is the -o file.
type report struct {
	Header  header   `json:"header"`
	Results []result `json:"results"`
}

// result is one workload's outcome.
type result struct {
	Workload string `json:"workload"`
	// Correct is false when any child exited non-zero, timed out or failed
	// a gate; the workload's metrics are then whatever was gathered before.
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Gate      string   `json:"gate,omitempty"`
	Samples   int      `json:"samples"`
	Errors    []string `json:"errors,omitempty"`
	// EndToEnd or PerLayer is filled, by the kind of run.
	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

func (r *result) fail(err error) {
	r.Correct = false
	r.Errors = append(r.Errors, err.Error())
}

// metrics returns the declarations and values of the kind of run r is from.
func (r result) metrics() ([]metric, map[string]float64) {
	if r.EndToEnd != nil {
		return endToEnd, r.EndToEnd
	}
	return perLayer(), r.PerLayer
}

// contractLine is the one-object summary the benchmark driver parses.
func (r result) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	decls, vals := r.metrics()
	metrics := make(map[string]value, len(decls))
	for _, m := range decls {
		metrics[m.Name] = value{vals[m.Name], m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(line)
}

// driver spawns the children. It re-executes its own binary.
type driver struct {
	opt  options
	exe  string
	root string
}

func newDriver(opt options) (*driver, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return &driver{opt: opt, exe: exe, root: repoRoot()}, nil
}

func (d *driver) header() header {
	return header{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		// What cliutil.ApplyWorkers(-1) resolves to in every child.
		Commit: commit(d.root), Fingerprint: core.Fingerprint(), Workers: sim.DefaultWorkers(),
		Seed: d.opt.seed, Seconds: d.opt.seconds, Traced: d.opt.traced,
	}
}

func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// child runs one child to completion under its ceiling and decodes the
// report it prints. The scratch directory is the driver's, so it is
// removed even when the child is killed.
func (d *driver) child(w *workload, mode string, ceiling time.Duration, extra ...string) (childReport, error) {
	var rep childReport
	scratch := filepath.Join(d.root, "benchmark", "out")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return rep, err
	}
	dir, err := os.MkdirTemp(scratch, "tmp-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), ceiling)
	defer cancel()
	args := append([]string{"-child", w.Name, "-mode", mode, "-dir", dir,
		"-seed", fmt.Sprint(d.opt.seed), "-seconds", fmt.Sprint(d.opt.seconds)}, extra...)
	if d.opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, d.exe, args...)
	cmd.Dir = d.root
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	if ctx.Err() != nil {
		return rep, fmt.Errorf("%s child timed out after %v", mode, ceiling)
	}
	if line := lastLine(out); line != "" {
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			return rep, fmt.Errorf("%s child printed no report: %w", mode, err)
		}
	}
	if rep.Err != "" {
		return rep, errors.New(rep.Err)
	}
	if runErr != nil {
		return rep, fmt.Errorf("%s child: %w", mode, runErr)
	}
	return rep, nil
}

func lastLine(out []byte) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return lines[len(lines)-1]
}

// ceiling is four times what the child is expected to take.
func (d *driver) ceiling(w *workload) time.Duration {
	expect := w.ExpectS
	if w.Warm {
		expect = d.opt.seconds + 3
	}
	if d.opt.smoke {
		expect = 5
	}
	return time.Duration(4 * expect * float64(time.Second))
}

// setupSamples is how many set-ups one run's setup_s is the median of.
const setupSamples = 3

// untraced is the end-to-end run of one workload: cold passes each in
// their own child until the time is up (the warm workload loops inside
// one), a closed loop of one sweep at a time.
func (d *driver) untraced(w *workload) result {
	r := result{Workload: w.Name, Correct: true, EndToEnd: map[string]float64{}}
	var (
		setups, rss []float64
		passes      []passSample
		sha         string
	)
	for start := time.Now(); ; {
		rep, err := d.child(w, modePass, d.ceiling(w))
		if err != nil {
			r.fail(err)
			break
		}
		setups = append(setups, rep.SetupS)
		rss = append(rss, rep.PeakRSSMB)
		passes = append(passes, rep.Passes...)
		r.Failed += rep.FailedCells
		r.Gate = rep.Gate
		if sha != "" && rep.OutputSHA != sha {
			r.fail(errors.New("passes rendered different bytes"))
		}
		sha = rep.OutputSHA
		if w.Warm || time.Since(start).Seconds() >= d.opt.seconds {
			break
		}
	}
	want := setupSamples
	if d.opt.smoke {
		want = 1
	}
	for len(setups) < want && r.Correct {
		rep, err := d.child(w, modeSetup, d.ceiling(w))
		if err != nil {
			r.fail(err)
			break
		}
		setups = append(setups, rep.SetupS)
	}

	var wall, cpu, alloc []float64
	for _, p := range passes {
		wall, cpu, alloc = append(wall, p.WallS), append(cpu, p.CPUS), append(alloc, p.AllocMB)
	}
	r.Samples = len(passes)
	r.Attempted = w.Cells * max(len(passes), 1)
	if r.Failed > 0 {
		r.Correct = false
	} else if !r.Correct {
		r.Failed = r.Attempted // a lost child or a failed gate: failed_share = 1
	}
	r.EndToEnd["setup_s"] = median(setups)
	r.EndToEnd["wall_s"] = median(wall)
	r.EndToEnd["wall_p95_s"] = tail(wall)
	r.EndToEnd["cpu_s"] = median(cpu)
	r.EndToEnd["peak_rss_mb"] = median(rss)
	r.EndToEnd["alloc_mb"] = median(alloc)
	if m := median(wall); m > 0 {
		r.EndToEnd["cells_per_s"] = float64(w.Cells) / m
	}
	return r
}

// units runs the group (A) child.
func (d *driver) units() (map[string]float64, error) {
	rep, err := d.child(workloads[0], modeUnits, 150*time.Second)
	return rep.Metrics, err
}

// traced is the per-layer run of one workload: the span replay and the
// profiled passes, each in a fresh process, beside the run's unit costs.
func (d *driver) traced(w *workload, units map[string]float64) result {
	r := result{Workload: w.Name, Correct: units != nil, PerLayer: map[string]float64{}}
	if units == nil {
		r.Errors = append(r.Errors, "unit costs failed")
	}
	for _, m := range perLayer() {
		r.PerLayer[m.Name] = 0
	}
	for k, v := range units {
		r.PerLayer[k] = v
	}
	spans, err := d.child(w, modeSpans, d.ceiling(w))
	if err != nil {
		r.fail(err)
	}
	prof, err := d.child(w, modeProfile, d.ceiling(w))
	if err != nil {
		r.fail(err)
	}
	for _, rep := range []childReport{spans, prof} {
		for k, v := range rep.Metrics {
			if _, declared := r.PerLayer[k]; declared {
				r.PerLayer[k] = v
			}
		}
	}
	if r.Correct {
		if a, b := prof.Metrics["pass_wall_s"], spans.Metrics["replay_wall_s"]; a > 0 {
			r.PerLayer["bench.trace_overhead_pct"] = 100 * (b - a) / a
		}
		var sum float64
		for _, b := range cpuBuckets {
			sum += r.PerLayer["cpu."+b+"_share"]
		}
		if sum < 0.99 || sum > 1.01 {
			r.fail(fmt.Errorf("cpu shares sum to %.4f, not 1", sum))
		}
		// The replay unrolls the sweep by hand; it must have put the cache
		// through exactly what the real entry point does.
		if s, p := spans.Cache, prof.Cache; s == nil || p == nil ||
			s.Misses != p.Misses || s.DiskHits != p.DiskHits || s.Stale != p.Stale || s.GraphMisses != p.GraphMisses {
			r.fail(fmt.Errorf("replay and real pass disagree on the cache: %+v vs %+v", s, p))
		}
	}
	r.Samples = 1
	r.Attempted = int(r.PerLayer["core.cells"])
	if !r.Correct {
		r.Attempted = max(r.Attempted, 1)
		r.Failed = r.Attempted
	}
	return r
}

func (d *driver) updateReference() int {
	w, _ := workloadByName("fig3_small_cold")
	if _, err := d.child(w, modePass, d.ceiling(w), "-update-reference"); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return cliutil.ExitHarness
	}
	fmt.Fprintln(os.Stderr, "benchmark: wrote", w.Reference)
	return cliutil.ExitOK
}

func printHeader(w io.Writer, h header) {
	kind := "end-to-end (tracing off)"
	if h.Traced {
		kind = "traced (per-layer)"
	}
	fmt.Fprintf(w, "benchmark: %s run, seed %d, %gs per workload\n", kind, h.Seed, h.Seconds)
	fmt.Fprintf(w, "  %s  GOMAXPROCS=%d  nproc=%d  workers=%d (cliutil default)\n", h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.Workers)
	fmt.Fprintf(w, "  commit %s  fingerprint %s\n", h.Commit, h.Fingerprint)
}

func printResult(w io.Writer, r result) {
	status := "ok"
	if !r.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(w, "\n%s: %s  gate=%s  passes=%d  attempted=%d  failed=%d  failed_share=%.4g\n",
		r.Workload, status, r.Gate, r.Samples, r.Attempted, r.Failed,
		float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	decls, vals := r.metrics()
	for _, m := range decls {
		digits := 6
		if m.Unit == "count" {
			digits = -1 // counts are exact: print every digit
		}
		fmt.Fprintf(w, "  %-36s %14s %s\n", m.Name, strconv.FormatFloat(vals[m.Name], 'g', digits, 64), m.Unit)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// The driver re-executes its own binary for every child; under `go test`
// that binary is the test binary, so child invocations are routed to run.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func series(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestMedianAndTail(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1}, 2.5}, {[]float64{9, 1, 5}, 5}, {series(10), 5.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	// Ten samples beyond: the 95th percentile of 200 samples is the 190th
	// smallest, with exactly ten above it. One sample fewer and there are
	// not ten, so the tail is the slowest pass.
	if got := tail(series(200)); got != 190 {
		t.Errorf("tail of 200 samples = %v, want the 190th (95th percentile)", got)
	}
	if got := tail(series(199)); got != 199 {
		t.Errorf("tail of 199 samples = %v, want the maximum", got)
	}
	if got := tail(series(300)); got != 285 {
		t.Errorf("tail of 300 samples = %v, want 285 (fifteen beyond)", got)
	}
	if got := tail([]float64{2, 7, 3}); got != 7 {
		t.Errorf("tail of 3 samples = %v, want the slowest", got)
	}
	if got := percentile(series(20), 0.95); got != 19 {
		t.Errorf("percentile(20 samples, 0.95) = %v, want 19", got)
	}
}

func TestBucketing(t *testing.T) {
	for fn, want := range map[string][2]string{
		"twolayer/internal/apps/asp.relaxRows":                  {"apps", "asp"},
		"twolayer/internal/apps/water.(*state).needers":         {"apps", "water"},
		"twolayer/internal/apps/collectives.(*App).Job.func1":   {"apps", ""},
		"twolayer/internal/apps.Scale.String":                   {"apps", ""},
		"twolayer/internal/sim.(*Kernel).step":                  {"sim", ""},
		"twolayer/internal/par.(*Env).Send":                     {"par", ""},
		"twolayer/internal/analytic.(*Eval).batchWalk32":        {"analytic", ""},
		"twolayer/internal/topology.(*Topology).ClusterOf":      {"other", ""},
		"twolayer/benchmark.renderFig3":                         {"other", ""},
		"runtime.mallocgc":                                      {"runtime_gc", ""},
		"runtime.growslice":                                     {"runtime_gc", ""},
		"runtime.scanobject":                                    {"runtime_gc", ""},
		"runtime.(*mspan).nextFreeIndex":                        {"runtime_gc", ""},
		"runtime.memmove":                                       {"runtime_mem", ""},
		"runtime.memclrNoHeapPointers":                          {"runtime_mem", ""},
		"runtime.duffcopy":                                      {"runtime_mem", ""},
		"runtime.futex":                                         {"runtime_sched", ""},
		"runtime.coroswitch_m":                                  {"runtime_sched", ""},
		"runtime.lock2":                                         {"runtime_sched", ""},
		"internal/runtime/atomic.(*Uint32).Load":                {"runtime_sched", ""},
		"iter.Pull[go.shape.struct {}].func2":                   {"runtime_sched", ""},
		"sync.(*Mutex).Lock":                                    {"runtime_sched", ""},
		"runtime.mapaccess2_faststr":                            {"other", ""},
		"encoding/json.(*decodeState).object":                   {"other", ""},
		"slices.SortFunc[go.shape.[]twolayer/internal/par.x,…]": {"other", ""},
		"syscall.Syscall6":                                      {"other", ""},
	} {
		bucket, app := bucketOf(fn)
		if bucket != want[0] || app != want[1] {
			t.Errorf("bucketOf(%q) = %q, %q; want %q, %q", fn, bucket, app, want[0], want[1])
		}
	}

	// A synthetic profile: whatever the mix, the top-level shares sum to 1
	// and the per-application shares sum to cpu.apps_share.
	m := cpuBudget(map[string]int64{
		"twolayer/internal/apps/asp.relaxRows": 320e6,
		"twolayer/internal/apps/fft.butterfly": 30e6,
		"twolayer/internal/apps.helper":        10e6,
		"twolayer/internal/sim.(*Kernel).step": 120e6,
		"runtime.mallocgc":                     200e6,
		"runtime.memmove":                      100e6,
		"runtime.futex":                        150e6,
		"os.ReadFile":                          70e6,
	}, 2)
	var top, perApp float64
	for _, b := range cpuBuckets {
		top += m["cpu."+b+"_share"]
	}
	for _, a := range appBuckets {
		perApp += m["cpu.apps_"+a+"_share"]
	}
	if math.Abs(top-1) > 1e-9 {
		t.Errorf("top-level shares sum to %v, want 1", top)
	}
	if got, want := m["cpu.apps_share"], 0.36; math.Abs(got-want) > 1e-9 {
		t.Errorf("cpu.apps_share = %v, want %v", got, want)
	}
	if want := 0.35; math.Abs(perApp-want) > 1e-9 {
		t.Errorf("per-application shares sum to %v, want %v (apps.helper belongs to no one application)", perApp, want)
	}
	if got := m["cpu.total_s"]; got != 0.5 {
		t.Errorf("cpu.total_s = %v, want 0.5 (1 s of samples over 2 passes)", got)
	}
	if m := cpuBudget(nil, 1); m["cpu.other_share"] != 1 {
		t.Errorf("an empty profile must still sum to 1, got %v", m)
	}
}

// spin burns CPU until the deadline, so the profiler has something to find.
func spin(d time.Duration) (x uint64) {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestLeafSamplesReadsARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	leaves, err := leafSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, mine int64
	for fn, ns := range leaves {
		total += ns
		if strings.Contains(fn, "benchmark.spin") || strings.HasPrefix(fn, "time.") || strings.HasPrefix(fn, "runtime.") {
			mine += ns
		}
	}
	if total < int64(100*time.Millisecond) {
		t.Fatalf("profile of a 300 ms spin holds %v of samples", time.Duration(total))
	}
	if mine*2 < total {
		t.Errorf("under half the samples are in spin and what it calls: %v", leaves)
	}
	if _, err := leafSamples([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "core.cell", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "apps.new", Start: 10, End: 30, Parent: 0},
		{ID: 2, Name: "par.run", Start: 20, End: 50, Parent: 0},           // overlaps apps.new: [20,30] counts once
		{ID: 3, Name: "core.cache_store", Start: 90, End: 120, Parent: 0}, // runs past the parent: clipped at 100
		{ID: 4, Name: "sim.window", Start: 25, End: 45, Parent: 2},
		{ID: 5, Name: "core.cell", Start: 200, End: 260, Parent: -1}, // a memory hit: no children
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"core.cell":        (100 - 40 - 10) + 60, // children cover [10,50] and [90,100]
		"apps.new":         20,
		"par.run":          30 - 20,
		"core.cache_store": 30,
		"sim.window":       20,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
}

func TestCheckReference(t *testing.T) {
	out := []byte("a,b\n1,2\n")
	stamped := append([]byte(stampPrefix+"abc\n"), out...)
	for _, c := range []struct {
		name    string
		ref     []byte
		stamped bool
		want    string
		wantErr bool
	}{
		{"plain match", out, false, gateMatch, false},
		{"plain mismatch", []byte("a,b\n1,3\n"), false, "", true},
		{"stamped match", stamped, true, gateMatch, false},
		{"stamped mismatch", append([]byte(stampPrefix+"abc\n"), "a,b\n"...), true, "", true},
		{"stale stamp", append([]byte(stampPrefix+"old\n"), "anything"...), true, gateStale, false},
		{"stamp missing", out, true, "", true},
	} {
		got, err := checkReference(c.ref, c.stamped, "abc", out)
		if got != c.want || (err != nil) != c.wantErr {
			t.Errorf("%s: got %q, %v; want %q, error=%v", c.name, got, err, c.want, c.wantErr)
		}
	}
	// The committed reference of the benchmark's own carries this tree's
	// stamp; if the golden table changed on purpose, say how to refresh it.
	ref, err := os.ReadFile(filepath.Join("testdata", "figure3_small.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(ref, []byte(stampPrefix+goldenHash()+"\n")) {
		t.Log("testdata/figure3_small.csv is stamped with another golden table (stale_reference); refresh it with `go run ./benchmark -update-reference`")
	}
}

// TestManifest holds BENCHMARK.json to the declarations the program prints
// from: every declared name is printed, every printed name is declared.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if m := manifest.Workloads[i]; m.Name != w.Name || m.Why != w.Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: manifest %+v, program %q / %q", i, m, w.Name, w.Why)
		}
	}
	if len(manifest.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the program", len(manifest.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		name(m.Name)
		got := manifest.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: manifest %+v, program %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bound %v or unit %q out of range", m.Name, m.Bound, m.Unit)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	layers := perLayer()
	if len(manifest.PerLayer) != len(layers) || len(layers) > 128 {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the program (at most 128)", len(manifest.PerLayer), len(layers))
	}
	for i, m := range layers {
		name(m.Name)
		if got := manifest.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: manifest %+v, program %+v", i, got, m)
		}
	}
	if manifest.RunSeconds < 1 || manifest.RunSeconds > 60 || len(manifest.Paths) != 1 || manifest.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d or paths %v out of contract", manifest.RunSeconds, manifest.Paths)
	}

	// What the program prints, for both kinds of run.
	for _, c := range []struct {
		r     result
		decls []metric
	}{
		{result{EndToEnd: map[string]float64{}}, endToEnd},
		{result{PerLayer: map[string]float64{}}, layers},
	} {
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(c.r.contractLine()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
			t.Fatalf("result line does not have exactly the contract's keys: %v", err)
		}
		if len(line.Metrics) != len(c.decls) {
			t.Errorf("result line has %d metrics, %d declared", len(line.Metrics), len(c.decls))
		}
		for _, m := range c.decls {
			if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value == nil {
				t.Errorf("declared metric %s missing from the result line or with another unit", m.Name)
			}
		}
	}
}

// TestSmoke drives the whole untraced path — driver, children, gates,
// aggregation, -o and -compare — on two workloads at Tiny scale.
func TestSmoke(t *testing.T) {
	t.Parallel() // with TestTracedChildrenSmoke: the children are processes of their own
	out := filepath.Join(t.TempDir(), "smoke.json")
	var stdout bytes.Buffer
	if code := run([]string{"-smoke", "-workload", "regimes_small,fig3_warm", "-seconds", "0.3", "-o", out}, &stdout); code != 0 {
		t.Fatalf("smoke run exited %d:\n%s", code, stdout.String())
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("%d results, want 2", len(rep.Results))
	}
	for _, r := range rep.Results {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 || r.Samples < 1 {
			t.Errorf("%s: %+v", r.Workload, r)
		}
		for _, m := range endToEnd {
			if !(r.EndToEnd[m.Name] > 0) {
				t.Errorf("%s: %s = %v, want a positive measurement", r.Workload, m.Name, r.EndToEnd[m.Name])
			}
			if !strings.Contains(stdout.String(), m.Name) {
				t.Errorf("%s is not printed", m.Name)
			}
		}
	}
	if rep.Header.Workers < 1 || rep.Header.Fingerprint == "" {
		t.Errorf("header %+v does not record the engine and fingerprint", rep.Header)
	}
	if entries, _ := filepath.Glob(filepath.Join(repoRoot(), "benchmark", "out", "tmp-*")); len(entries) != 0 {
		t.Errorf("scratch directories left behind: %v", entries)
	}

	// A run agrees with itself; the same run with cpu_s inflated past its
	// bound does not.
	if !compareReports(io.Discard, rep, rep) {
		t.Error("-compare of a report with itself reports a regression")
	}
	worse := rep
	worse.Results = append([]result(nil), rep.Results...)
	inflated := map[string]float64{}
	for k, v := range rep.Results[0].EndToEnd {
		inflated[k] = v
	}
	inflated["cpu_s"] *= 1.5
	worse.Results[0].EndToEnd = inflated
	var table bytes.Buffer
	if compareReports(&table, rep, worse) || !strings.Contains(table.String(), "REGRESSION") {
		t.Errorf("-compare missed a 50%% cpu_s regression:\n%s", table.String())
	}
	if !compareReports(io.Discard, worse, rep) {
		t.Error("-compare flags an improvement as a regression")
	}
}

// TestTracedChildrenSmoke runs the two traced child modes that depend on
// the workload, in process, and checks what the driver checks: the
// unrolled replay and the real entry point put the cache through the same
// thing, and the CPU shares sum to 1.
func TestTracedChildrenSmoke(t *testing.T) {
	t.Parallel()
	opt := options{seed: 7, smoke: true}
	reports := map[string]*childReport{}
	for _, mode := range []string{modeSpans, modeProfile} {
		rep := &childReport{Workload: "regimes_small", Mode: mode}
		if err := runChild(rep, t.TempDir(), opt, false); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		reports[mode] = rep
	}
	s, p := reports[modeSpans], reports[modeProfile]
	if s.Cache.Misses != p.Cache.Misses || s.Cache.Hits != p.Cache.Hits || s.Cache.Misses != 49 || s.Cache.Hits != 14 {
		t.Errorf("replay saw %+v, real pass %+v; want 49 simulated and 14 memory hits in both", s.Cache, p.Cache)
	}
	if got := s.Metrics["core.cells"]; got != 63 {
		t.Errorf("core.cells = %v, want 63", got)
	}
	if s.Metrics["sim.events"] <= 0 || s.Metrics["par.run_s"] <= 0 || s.Metrics["par.retransmits"] <= 0 {
		t.Errorf("replay counted no events, run time or retransmissions: %v", s.Metrics)
	}
	var sum float64
	for _, b := range cpuBuckets {
		sum += p.Metrics["cpu."+b+"_share"]
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("cpu shares sum to %v", sum)
	}
	trace := filepath.Join(repoRoot(), "benchmark", "out", "trace-regimes_small.json")
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) < 63 {
		t.Errorf("trace file holds %d spans (%v)", len(doc.Spans), err)
	}
}

// TestFailureAccounting: a child that exits non-zero is its workload's
// failure — failed_share 1 — and not the run's.
func TestFailureAccounting(t *testing.T) {
	d := &driver{opt: options{seed: defaultSeed, seconds: 0.1}, exe: "/bin/false", root: repoRoot()}
	for _, w := range workloads[:2] {
		r := d.untraced(w)
		if r.Correct || r.Failed != r.Attempted || r.Attempted < 1 || len(r.Errors) == 0 {
			t.Errorf("%s: %+v, want an incorrect result with every attempted cell failed", w.Name, r)
		}
	}
	r := d.traced(workloads[0], nil)
	if r.Correct || r.Failed != r.Attempted || r.Attempted < 1 {
		t.Errorf("traced: %+v", r)
	}
}

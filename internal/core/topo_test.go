package core

import (
	"bytes"
	"strings"
	"testing"

	"twolayer/internal/apps"
	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
	"twolayer/internal/wantopo"
)

// Wide-area topology differentials: the multi-hop router must keep the
// engine's bit-identity contract (any worker count, faults on or off), the
// explicit clique must be indistinguishable — in results and in cache
// identity — from the implicit default, and the analytic shortcut must
// refuse graphs its replay model cannot see.

// TestMultiHopDifferential runs one application across every generator
// family, with and without fault injection, plus a wide-area variability
// regime on two multi-hop graphs, and requires deep Result equality between
// a sequential request (Workers=-1, which on multi-hop graphs runs the
// windowed engine on one worker) and explicit worker counts. This is the
// multi-hop extension of TestGoldenDeterminismParallel.
func TestMultiHopDifferential(t *testing.T) {
	app, err := AppByName("Water")
	if err != nil {
		t.Fatal(err)
	}
	type row struct{ spec, mode string }
	var rows []row
	for _, spec := range []string{"clique", "ring", "torus:4x2", "circulant:1,3", "fattree:4"} {
		rows = append(rows, row{spec, ""}, row{spec, "faulted"})
	}
	rows = append(rows, row{"ring", "vary"}, row{"torus2", "vary"})
	for _, r := range rows {
		r := r
		name := r.spec
		if r.mode != "" {
			name += "/" + r.mode
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := wantopo.Parse(r.spec, 8)
			if err != nil {
				t.Fatal(err)
			}
			run := func(workers int) par.Result {
				x := Experiment{App: app, Scale: apps.Tiny, Optimized: true,
					Topo:   topology.MustUniform(8, 2),
					Params: network.DefaultParams().WithWAN(3300*sim.Microsecond, 0.95e6),
					WAN:    w, Workers: workers}
				switch r.mode {
				case "faulted":
					x.Faults = faults.Params{DropRate: 0.02, DupRate: 0.01, Seed: 7}
				case "vary":
					x.Regime = regime.Params{Spec: "vary:5ms:0.5:20ms", Seed: 7}
				}
				res, err := x.Run()
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return res
			}
			seq := run(-1)
			if seq.WAN.Messages == 0 {
				t.Fatal("run produced no wide-area traffic; differential is vacuous")
			}
			for _, wk := range []int{1, 3} {
				resultsEqual(t, name, seq, run(wk))
			}
		})
	}
}

// TestCliqueExplicitMatchesDefault pins the compatibility contract: an
// experiment handed the explicit clique graph produces the same Result and
// the same cache identity as one with no WAN at all, so every pre-topology
// cache entry still addresses the runs it memoized.
func TestCliqueExplicitMatchesDefault(t *testing.T) {
	x := goldenExperiment(t, GoldenRuns[0])
	implicit := x.Key()
	x.WAN = wantopo.Clique(x.Topo.Clusters())
	explicit := x.Key()
	if implicit != explicit {
		t.Fatalf("cache keys differ: implicit %+v, explicit %+v", implicit, explicit)
	}
	if implicit.WANTopo != "" {
		t.Fatalf("clique WANTopo = %q, want empty (preserves on-disk addresses)", implicit.WANTopo)
	}

	cache := NewRunCache()
	def := goldenExperiment(t, GoldenRuns[0])
	want, err := def.RunCached(cache)
	if err != nil {
		t.Fatal(err)
	}
	got, err := x.RunCached(cache)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "explicit clique", want, got)
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("cache stats hits=%d misses=%d, want the explicit-clique run served warm (1, 1)", hits, misses)
	}
}

// TestMultiHopRefusals pins the hook error paths: multi-hop timing is
// defined by the windowed engine, so run modes needing the single-kernel
// engine (tracing, and the analytic recorder) must refuse rather than
// diverge.
func TestMultiHopRefusals(t *testing.T) {
	app, err := AppByName("ASP")
	if err != nil {
		t.Fatal(err)
	}
	ring, err := wantopo.Parse("ring", 4)
	if err != nil {
		t.Fatal(err)
	}
	x := Experiment{App: app, Scale: apps.Tiny,
		Topo:   topology.MustUniform(4, 2),
		Params: network.DefaultParams(),
		WAN:    ring,
		Trace:  trace.NewStream(8),
	}
	if _, err := x.Run(); err == nil || !strings.Contains(err.Error(), "clique") {
		t.Errorf("Trace on ring: err = %v, want clique refusal", err)
	}
	if _, _, err := Figure3Analytic(apps.Tiny, Figure3Options{WAN: ring}, AnalyticOptions{}); err == nil ||
		!strings.Contains(err.Error(), "clique") {
		t.Errorf("analytic on ring: err = %v, want clique refusal", err)
	}
}

// TestTopologyStudySmoke runs a tiny two-family study end to end and checks
// the point grid, the renderer and the CSV writer agree on its contents.
func TestTopologyStudySmoke(t *testing.T) {
	points, err := TopologyStudy(TopologyStudyConfig{
		Scale:      apps.Tiny,
		Apps:       []string{"ASP"},
		Procs:      16,
		Clusters:   []int{4, 8},
		Topologies: []string{"clique", "ring"},
		Cache:      NewRunCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	for _, p := range points {
		if p.Failed != "" {
			t.Errorf("%s %s c=%d failed: %s", p.App, p.Topology, p.Clusters, p.Failed)
		}
		if p.Elapsed <= 0 || p.RelPct <= 0 {
			t.Errorf("%s %s c=%d: empty metrics %+v", p.App, p.Topology, p.Clusters, p)
		}
		wantDiam := 1
		if p.Topology == "ring" {
			wantDiam = p.Clusters / 2
		}
		if p.Diameter != wantDiam {
			t.Errorf("%s c=%d diameter %d, want %d", p.Topology, p.Clusters, p.Diameter, wantDiam)
		}
	}
	// The ring pays multi-hop forwarding over fewer links; at equal WAN
	// speed it cannot beat the clique.
	byKey := map[string]TopologyPoint{}
	for _, p := range points {
		byKey[p.Topology+p.Shape] = p
	}
	for _, shape := range []string{"4x4", "8x2"} {
		if r, c := byKey["ring"+shape], byKey["clique"+shape]; r.Elapsed < c.Elapsed {
			t.Errorf("shape %s: ring %v faster than clique %v", shape, r.Elapsed, c.Elapsed)
		}
	}

	out := RenderTopologyStudy(points)
	for _, want := range []string{"clique", "ring", "ASP", "4x4", "8x2"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var csv1, csv2 bytes.Buffer
	WriteTopologyCSV(&csv1, points)
	WriteTopologyCSV(&csv2, points)
	if csv1.String() != csv2.String() {
		t.Error("CSV writer is not deterministic")
	}
	if lines := strings.Count(csv1.String(), "\n"); lines != 5 {
		t.Errorf("CSV has %d lines, want 5 (header + 4 points)", lines)
	}
}

package core

import (
	"bytes"
	"errors"
	"reflect"
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

// Wide-area topology tests: multi-hop timing is pinned per generator family
// (with and without faults), the explicit clique must be indistinguishable —
// in results and in cache identity — from the implicit default, and the
// analytic shortcut must refuse graphs its replay model cannot see.

// TestMultiHopDifferential pins one application across every generator
// family, with and without fault injection, plus a wide-area variability
// regime on two multi-hop graphs: Elapsed, wide-area link messages (one per
// hop) and events of the sequential kernel, where equal-time sends book a
// shared link in global schedule order. Each row runs twice and must
// repeat itself exactly.
func TestMultiHopDifferential(t *testing.T) {
	app, err := AppByName("Water")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		spec, mode string
		elapsed    sim.Time
		wan        int64
		events     uint64
	}{
		{"clique", "", 15942200, 240, 1400},
		{"clique", "faulted", 43707327, 517, 1915},
		{"ring", "", 109397044, 576, 1400},
		{"ring", "faulted", 388348358, 4312, 3790},
		{"torus:4x2", "", 57706835, 416, 1400},
		{"torus:4x2", "faulted", 78669546, 1613, 2519},
		{"circulant:1,3", "", 40290273, 352, 1400},
		{"circulant:1,3", "faulted", 63897251, 1163, 2268},
		{"fattree:4", "", 64056636, 768, 1400},
		{"fattree:4", "faulted", 77933082, 3047, 2583},
		{"ring", "vary", 198590678, 576, 1400},
		{"torus2", "vary", 113954299, 416, 1400},
	} {
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
			x := Experiment{App: app, Scale: apps.Tiny, Optimized: true,
				Topo:   topology.MustUniform(8, 2),
				Params: network.DefaultParams().WithWAN(3300*sim.Microsecond, 0.95e6),
				WAN:    w}
			switch r.mode {
			case "faulted":
				x.Faults = faults.Params{DropRate: 0.02, DupRate: 0.01, Seed: 7}
			case "vary":
				x.Regime = regime.Params{Spec: "vary:5ms:0.5:20ms", Seed: 7}
			}
			res, err := x.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed != r.elapsed || res.WAN.Messages != r.wan || res.Events != r.events {
				t.Errorf("got %d ns, %d WAN messages, %d events; pinned %d, %d, %d",
					res.Elapsed, res.WAN.Messages, res.Events, r.elapsed, r.wan, r.events)
			}
			again, err := x.Run()
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, name+" rerun", res, again)
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
	if st := cache.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats hits=%d misses=%d, want the explicit-clique run served warm (1, 1)", st.Hits, st.Misses)
	}
}

// TestMultiHopRefusals pins what a multi-hop graph still refuses: the
// analytic recorder, whose replay charges one wide-area leg per message
// and cannot see routes.
func TestMultiHopRefusals(t *testing.T) {
	ring, err := wantopo.Parse("ring", 4)
	if err != nil {
		t.Fatal(err)
	}
	var u *par.Unsupported
	if _, _, err := Figure3Analytic(apps.Tiny, Figure3Options{WAN: ring}, AnalyticOptions{}); !errors.As(err, &u) ||
		*u != (par.Unsupported{A: par.Record, B: par.NonClique}) {
		t.Errorf("analytic on ring: err = %v, want the Record x NonClique refusal", err)
	}
}

// sendCounter is a trace sink that also counts the wide-area messages it
// observes per cluster pair.
type sendCounter struct {
	*trace.Stream
	topo  *topology.Topology
	pairs map[[2]int]int64
}

func (c *sendCounter) RecordMessage(m trace.Message) {
	c.Stream.RecordMessage(m)
	if m.WAN {
		c.pairs[[2]int{c.topo.ClusterOf(m.Src), c.topo.ClusterOf(m.Dst)}]++
	}
}

// TestTraceOnMultiHop: a trace of a multi-hop run sees one wide-area
// message per send, while the links book one message per hop — every
// send from cluster a to cluster b books the len(Route(a, b)) links of its
// route, which is what the run's per-link statistics add up.
func TestTraceOnMultiHop(t *testing.T) {
	app, err := AppByName("Water")
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.MustUniform(8, 2)
	torus, err := wantopo.Parse("torus2", topo.Clusters())
	if err != nil {
		t.Fatal(err)
	}
	sink := &sendCounter{Stream: trace.NewStream(topo.Procs()), topo: topo, pairs: map[[2]int]int64{}}
	x := Experiment{App: app, Scale: apps.Tiny, Topo: topo, Params: ReferenceParams(), WAN: torus, Trace: sink}
	res, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	var sends, hops int64
	for p, n := range sink.pairs {
		sends += n
		hops += n * int64(len(torus.Route(p[0], p[1])))
	}
	if got := int64(sink.Summarize().WANMessages); got != sends {
		t.Errorf("trace counts %d wide-area messages, %d were sent", got, sends)
	}
	if hops != res.WAN.Messages {
		t.Errorf("sends book %d link hops, the links counted %d", hops, res.WAN.Messages)
	}
	if sends >= res.WAN.Messages {
		t.Errorf("%d sends on %d link messages: the run forwarded nothing", sends, res.WAN.Messages)
	}
	again, err := Experiment{App: app, Scale: apps.Tiny, Topo: topo, Params: ReferenceParams(), WAN: torus,
		Trace: trace.NewStream(topo.Procs())}.Run()
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "traced rerun", res, again)
}

// TestZeroLookaheadMultiHopRuns: a multi-hop graph on a wide area with no
// latency and no per-message overheads runs, and reruns to the same grid.
func TestZeroLookaheadMultiHopRuns(t *testing.T) {
	ring, err := wantopo.Parse("ring", 4)
	if err != nil {
		t.Fatal(err)
	}
	zero := network.DefaultParams()
	zero.SendOverhead, zero.RecvOverhead, zero.IntraLatency = 0, 0, 0
	zero.WANLatency, zero.WANPerMessage = 0, 0
	run := func() []ChaosPoint {
		points, err := ChaosStudy(ChaosConfig{Topo: topology.MustUniform(4, 2), Params: zero, WAN: ring,
			Drops: []float64{0, 0.02}, Outages: []sim.Time{0}, Cache: NewRunCache()})
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	first := run()
	for _, p := range first {
		if p.Failed != "" {
			t.Errorf("%+v failed", p)
		}
	}
	if second := run(); !reflect.DeepEqual(first, second) {
		t.Errorf("rerun differs:\n%+v\n%+v", first, second)
	}
}

// TestStudiesRefuseBeforeFirstCell: a study whose cells ask for a refused
// combination returns the capability table's refusal before any cell (or
// baseline, or recording) runs.
func TestStudiesRefuseBeforeFirstCell(t *testing.T) {
	ring, err := wantopo.Parse("ring", 4)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewRunCache()
	var u *par.Unsupported
	_, _, err = Figure3Analytic(apps.Tiny, Figure3Options{Apps: []string{"TSP"}, WAN: ring, Cache: cache}, AnalyticOptions{})
	if !errors.As(err, &u) || *u != (par.Unsupported{A: par.Record, B: par.NonClique}) {
		t.Errorf("analytic Figure 3 on a ring: err = %v, want the Record x NonClique refusal", err)
	}
	if s := cache.CacheStats(); s != (CacheStats{}) {
		t.Errorf("refused studies did work: %+v", s)
	}
}

// TestStudiesRefuseRepeatedElements: a repeated application, cluster count
// or topology spec would only repeat rows, so the topology and regime
// studies refuse it before any cell runs.
func TestStudiesRefuseRepeatedElements(t *testing.T) {
	base := TopologyStudyConfig{Apps: []string{"ASP"}, Procs: 16, Clusters: []int{4}, Topologies: []string{"clique"}}
	repApps, repClusters, repSpecs := base, base, base
	repApps.Apps = []string{"ASP", "ASP"}
	repClusters.Clusters = []int{4, 8, 4}
	repSpecs.Topologies = []string{"clique", "ring", "clique"}
	for name, cfg := range map[string]TopologyStudyConfig{"apps": repApps, "clusters": repClusters, "specs": repSpecs} {
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "repeated") {
			t.Errorf("topology study, repeated %s: err = %v", name, err)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("topology study without repeats refused: %v", err)
	}
	cache := NewRunCache()
	_, err := RegimeStudy(RegimeStudyConfig{Scale: apps.Tiny, Apps: []string{"TSP", "TSP"}, Cache: cache})
	if err == nil || !strings.Contains(err.Error(), "repeated") {
		t.Errorf("regime study, repeated workload: err = %v", err)
	}
	if s := cache.CacheStats(); s != (CacheStats{}) {
		t.Errorf("refused regime study did work: %+v", s)
	}
	for name, cfg := range map[string]ChaosConfig{
		"drop rates":       {Drops: []float64{0, 0.02, 0}, Outages: []sim.Time{0}},
		"outage durations": {Drops: []float64{0}, Outages: []sim.Time{0, 100 * sim.Millisecond, 100 * sim.Millisecond}},
	} {
		cfg.Scale, cfg.Cache = apps.Tiny, cache
		if _, err := ChaosStudy(cfg); err == nil || !strings.Contains(err.Error(), "repeated") {
			t.Errorf("chaos study, repeated %s: err = %v", name, err)
		}
	}
	if s := cache.CacheStats(); s != (CacheStats{}) {
		t.Errorf("refused chaos study did work: %+v", s)
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

package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"twolayer/internal/apps"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

// regimeSpecs are the scenarios the determinism contract is enforced over:
// each clause alone plus the full composition.
var regimeSpecs = []string{
	"diurnal:40ms:8",
	"congestion:8:6:30ms",
	"churn:60ms:15ms",
	"vary:5ms:0.5:20ms",
	"diurnal:40ms:8+congestion:8:4:30ms+churn:60ms:15ms+rel",
}

func regimeExperiment(t *testing.T, g GoldenRun, spec string, adaptive bool) Experiment {
	t.Helper()
	x := goldenExperiment(t, g)
	x.Regime = regime.Params{Spec: spec, Seed: 7}
	x.Adaptive = adaptive
	return x
}

func sameResult(a, b par.Result) bool {
	return a.Elapsed == b.Elapsed && a.Events == b.Events &&
		a.WAN == b.WAN && a.Transport == b.Transport && a.Faults == b.Faults
}

// TestRegimeDeterministic: every regime x every golden variant, run twice,
// with and without adaptation — bit-identical. This is the regime analog of
// the golden determinism contract: the plan is pure in (seed, virtual time,
// identity), so no repetition may move a single event.
func TestRegimeDeterministic(t *testing.T) {
	for _, g := range GoldenRuns {
		g := g
		name := g.App + "/unopt"
		if g.Optimized {
			name = g.App + "/opt"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, spec := range regimeSpecs {
				for _, adaptive := range []bool{false, true} {
					x := regimeExperiment(t, g, spec, adaptive)
					a, err := x.Run()
					if err != nil {
						t.Fatalf("%s adaptive=%v: %v", spec, adaptive, err)
					}
					b, err := x.Run()
					if err != nil {
						t.Fatalf("%s adaptive=%v rerun: %v", spec, adaptive, err)
					}
					if !sameResult(a, b) {
						t.Errorf("%s adaptive=%v: two runs differ: (%d ns, %d ev) vs (%d ns, %d ev)",
							spec, adaptive, a.Elapsed, a.Events, b.Elapsed, b.Events)
					}
				}
			}
		})
	}
}

// TestRegimeSlowsRuns: a regime may only ever degrade the wide-area layer,
// so no regime run can beat its calm twin.
func TestRegimeSlowsRuns(t *testing.T) {
	for _, g := range GoldenRuns[:4] {
		calm, err := goldenExperiment(t, g).Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range regimeSpecs {
			res, err := regimeExperiment(t, g, spec, false).Run()
			if err != nil {
				t.Fatalf("%s under %s: %v", g.App, spec, err)
			}
			if res.Elapsed < calm.Elapsed {
				t.Errorf("%s under %s finished earlier than calm: %v < %v",
					g.App, spec, res.Elapsed, calm.Elapsed)
			}
		}
	}
}

// TestRegimeZeroKeyEncoding: the zero regime must not appear in the cache
// key's JSON — every pre-regime on-disk entry keeps its content address.
func TestRegimeZeroKeyEncoding(t *testing.T) {
	app, err := AppByName("TSP")
	if err != nil {
		t.Fatal(err)
	}
	x := Experiment{App: app, Scale: apps.Tiny, Topo: topology.DAS(),
		Params: network.DefaultParams().WithWAN(3300*sim.Microsecond, 0.95e6)}
	clean, err := json.Marshal(x.Key())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(clean), "Regime") || strings.Contains(string(clean), "Adaptive") {
		t.Errorf("regime-free key mentions the regime plane: %s", clean)
	}
	x.Regime = regime.Params{Spec: "diurnal", Seed: 1}
	keyed, err := json.Marshal(x.Key())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(keyed), "Regime") {
		t.Errorf("regime key omits the regime: %s", keyed)
	}
	x.Adaptive = true
	adaptive := x.Key()
	static := x
	static.Adaptive = false
	if adaptive == static.Key() {
		t.Error("adaptive and static regime runs share a cache key")
	}
}

// TestRegimeInvalidRejected: malformed specs fail fast through the
// experiment layer, naming the offense.
func TestRegimeInvalidRejected(t *testing.T) {
	app, err := AppByName("TSP")
	if err != nil {
		t.Fatal(err)
	}
	x := Experiment{App: app, Scale: apps.Tiny, Topo: topology.DAS(),
		Params: network.DefaultParams(),
		Regime: regime.Params{Spec: "tides"}}
	if _, err := x.Run(); err == nil || !strings.Contains(err.Error(), "unknown clause") {
		t.Errorf("invalid regime spec accepted: %v", err)
	}
}

// TestRegimeStudyTiny: the study machinery end to end on a 2-workload,
// 1-regime grid — metrics well-formed, adaptation never loses, and two
// invocations render byte-identical CSV.
func TestRegimeStudyTiny(t *testing.T) {
	cfg := RegimeStudyConfig{
		Scale:   apps.Tiny,
		Apps:    []string{"Water", "Collectives"},
		Regimes: []regime.Params{{Spec: "churn:60ms:15ms", Seed: 7}},
		Cache:   NewRunCache(),
	}
	points, err := RegimeStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("want 2 points, got %d", len(points))
	}
	for _, p := range points {
		if p.Failed != "" {
			t.Fatalf("%s failed: %s", p.App, p.Failed)
		}
		if p.Calm <= 0 || p.Static < p.Calm || p.Adaptive < p.Calm {
			t.Errorf("%s: implausible runtimes calm=%v static=%v adaptive=%v",
				p.App, p.Calm, p.Static, p.Adaptive)
		}
		if p.Adaptive > p.Static {
			t.Errorf("%s: adaptation lost time: static %v, adaptive %v", p.App, p.Static, p.Adaptive)
		}
		if p.RetainedStaticPct <= 0 || p.RetainedAdaptivePct < p.RetainedStaticPct {
			t.Errorf("%s: retained metrics inconsistent: %+v", p.App, p)
		}
	}
	again, err := RegimeStudy(RegimeStudyConfig{
		Scale:   cfg.Scale,
		Apps:    cfg.Apps,
		Regimes: cfg.Regimes,
		Cache:   NewRunCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	WriteRegimeCSV(&a, points)
	WriteRegimeCSV(&b, again)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("two studies render different CSV:\n%s\nvs\n%s", a.String(), b.String())
	}
	if out := RenderRegimeStudy(points); !strings.Contains(out, "churn:60ms:15ms") {
		t.Errorf("render omits the regime header:\n%s", out)
	}
	if _, err := RegimeStudy(RegimeStudyConfig{Apps: []string{"NoSuchApp"}}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := RegimeStudy(RegimeStudyConfig{Regimes: []regime.Params{{Spec: "tides"}}}); err == nil {
		t.Error("malformed regime accepted")
	}
}

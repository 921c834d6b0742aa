package core

import (
	"encoding/json"
	"strings"
	"testing"

	"twolayer/internal/apps"
	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

// chaosParams is the golden-run wide-area setting, so the fault-free twin
// of each verified run is a configuration the suite already pins.
func chaosParams() network.Params {
	return network.DefaultParams().WithWAN(3300*sim.Microsecond, 0.95e6)
}

// TestVerifyUnderLoss runs every golden variant at Tiny scale with ≥1%
// wide-area loss plus duplication and checks the computed output against
// the sequential reference: the reliable channel must make the
// applications' answers exactly correct, not just let them terminate.
func TestVerifyUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("verification sweep in -short mode")
	}
	f := faults.Params{DropRate: 0.02, DupRate: 0.01, Seed: 7}
	for _, g := range GoldenRuns {
		g := g
		t.Run(g.App+optSuffix(g.Optimized), func(t *testing.T) {
			t.Parallel()
			app, err := AppByName(g.App)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Experiment{
				App: app, Scale: apps.Tiny, Optimized: g.Optimized,
				Topo: topology.DAS(), Params: chaosParams(),
				Faults: f, Verify: true,
			}.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Faults.Dropped == 0 && res.Faults.Duplicated == 0 {
				t.Skipf("no faults landed on %d WAN messages", res.WAN.Messages)
			}
		})
	}
}

func optSuffix(opt bool) string {
	if opt {
		return "/optimized"
	}
	return "/unoptimized"
}

// TestRunKeyFaultEncoding: the zero fault value must vanish from the key's
// JSON — and therefore keep the on-disk content address of every
// pre-existing cache entry — while non-zero faults must change it.
func TestRunKeyFaultEncoding(t *testing.T) {
	app, err := AppByName("TSP")
	if err != nil {
		t.Fatal(err)
	}
	x := Experiment{App: app, Scale: apps.Tiny, Topo: topology.DAS(), Params: chaosParams()}
	clean, err := json.Marshal(x.Key())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(clean), "Faults") {
		t.Errorf("zero-fault key mentions Faults: %s", clean)
	}
	x.Faults = faults.Params{DropRate: 0.01, Seed: 1}
	faulty, err := json.Marshal(x.Key())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(faulty), "Faults") {
		t.Errorf("faulty key omits Faults: %s", faulty)
	}
	if newDiskKey(x.Key()).addr == newDiskKey(Experiment{
		App: app, Scale: apps.Tiny, Topo: topology.DAS(), Params: chaosParams(),
	}.Key()).addr {
		t.Error("faulty and clean runs share a cache entry")
	}
}

// TestChaosStudySmall exercises the full study on a small deterministic
// grid and checks the summary machinery.
func TestChaosStudySmall(t *testing.T) {
	cfg := ChaosConfig{
		Scale:   apps.Tiny,
		Params:  chaosParams(),
		Drops:   []float64{0, 0.05},
		Outages: []sim.Time{0},
		Cache:   NewRunCache(),
	}
	points, err := ChaosStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(GoldenRuns) * 2
	if len(points) != wantRows {
		t.Fatalf("%d points, want %d", len(points), wantRows)
	}
	for _, p := range points {
		if p.Elapsed <= 0 {
			t.Errorf("%s drop=%g: no elapsed time", p.App, p.DropRate)
		}
		if p.DropRate == 0 && p.Transport != points[0].Transport && p.Faults.Dropped != 0 {
			t.Errorf("clean cell has faults: %+v", p)
		}
		if p.DropRate > 0 && p.Elapsed > 0 && p.Faults.Dropped == 0 && p.Transport.Acks == 0 {
			t.Errorf("faulty cell %s/%v shows no transport activity", p.App, p.Optimized)
		}
	}
	thr := ChaosThresholds(points)
	if len(thr) != len(GoldenRuns) {
		t.Fatalf("%d threshold rows, want %d", len(thr), len(GoldenRuns))
	}
	for _, r := range thr {
		if r.CleanPct <= 0 {
			t.Errorf("%s: clean speedup %f", r.App, r.CleanPct)
		}
	}
	if s := RenderChaosSummary(points); !strings.Contains(s, "Water") {
		t.Errorf("summary misses applications:\n%s", s)
	}
}

// TestChaosStudyDeterministic: two same-seed studies (fresh caches) agree
// on every point and render byte-identical CSV.
func TestChaosStudyDeterministic(t *testing.T) {
	run := func() ([]ChaosPoint, string) {
		points, err := ChaosStudy(ChaosConfig{
			Scale:   apps.Tiny,
			Params:  chaosParams(),
			Drops:   []float64{0.02},
			Outages: []sim.Time{0, 200 * sim.Millisecond},
			Cache:   NewRunCache(),
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		WriteChaosCSV(&b, points)
		return points, b.String()
	}
	p1, csv1 := run()
	p2, csv2 := run()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Errorf("point %d diverged: %+v vs %+v", i, p1[i], p2[i])
		}
	}
	if csv1 != csv2 {
		t.Error("CSV not byte-identical across same-seed studies")
	}
	if !strings.HasPrefix(csv1, "app,variant,drop_rate") {
		t.Errorf("unexpected CSV header: %q", csv1[:min(len(csv1), 60)])
	}
}

// TestChaosFaultyRunsCache: a faulty configuration is cacheable — the
// second identical study served from the shared cache runs no simulations.
func TestChaosFaultyRunsCache(t *testing.T) {
	cache := NewRunCache()
	cfg := ChaosConfig{
		Scale:   apps.Tiny,
		Params:  chaosParams(),
		Drops:   []float64{0.03},
		Outages: []sim.Time{0},
		Cache:   cache,
	}
	if _, err := ChaosStudy(cfg); err != nil {
		t.Fatal(err)
	}
	missesBefore := cache.CacheStats().Misses
	if _, err := ChaosStudy(cfg); err != nil {
		t.Fatal(err)
	}
	if misses := cache.CacheStats().Misses; misses != missesBefore {
		t.Errorf("repeat study re-simulated: misses %d -> %d", missesBefore, misses)
	}
}

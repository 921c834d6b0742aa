package regime

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"twolayer/internal/sim"
	"twolayer/internal/wantopo"
)

// Validate's tables; FuzzSpec seeds its corpus from them.
var (
	validParams = []Params{
		{},
		{Spec: "diurnal"},
		{Spec: "diurnal:250ms"},
		{Spec: "diurnal:250ms:16", Seed: 9},
		{Spec: "diurnal::16"}, // empty arg keeps the default period
		{Spec: "congestion"},
		{Spec: "congestion:8:6:40ms"},
		{Spec: "churn"},
		{Spec: "churn:2s:500ms"},
		{Spec: "rel"},
		{Spec: "vary"},
		{Spec: "vary:5ms:0.5:20ms", Seed: 1},
		{Spec: "vary:0s:0.9"}, // zero jitter: bandwidth fluctuation only
		{Spec: "vary:5ms:0"},  // zero loss: latency jitter only
		{Spec: "diurnal:1s:8+congestion+churn:1s:100ms+vary+rel", Seed: 3},
	}
	invalidParams = []struct {
		p    Params
		want string
	}{
		{Params{Seed: 5}, "seed 5 without a spec"},
		{Params{Spec: "diurnal", Seed: -1}, "negative seed"},
		{Params{Spec: "tides"}, "unknown clause"},
		{Params{Spec: "diurnal+"}, "empty clause"},
		{Params{Spec: "diurnal+diurnal"}, "duplicate diurnal"},
		{Params{Spec: "congestion+congestion:4"}, "duplicate congestion"},
		{Params{Spec: "churn:1s+churn"}, "duplicate churn"},
		{Params{Spec: "diurnal:xyz"}, "bad period"},
		{Params{Spec: "diurnal:-1s"}, "must be positive"},
		{Params{Spec: "diurnal:1s:0.5"}, "must be >= 1"},
		{Params{Spec: "diurnal:1s:NaN"}, "NaN"},
		{Params{Spec: "diurnal:1s:8:extra"}, "too many arguments"},
		{Params{Spec: "congestion:-2"}, "negative congestion flow count"},
		{Params{Spec: "congestion:100000000"}, "flow count 100000000 exceeds"}, // found by FuzzSpec: an 8 GB plan
		{Params{Spec: "congestion:2:-1"}, "negative congestion intensity"},
		{Params{Spec: "churn:1s:1s"}, "shorter than the period"},
		{Params{Spec: "churn:1s:2s"}, "shorter than the period"},
		{Params{Spec: "rel:1"}, "takes no arguments"},
		{Params{Spec: "vary:5ms:1"}, "bandwidth loss 1 outside [0,1)"},
		{Params{Spec: "vary:5ms:1.5"}, "bandwidth loss 1.5 outside [0,1)"},
		{Params{Spec: "vary:5ms:-0.1"}, "bandwidth loss -0.1 outside [0,1)"},
		{Params{Spec: "vary:5ms:NaN"}, "NaN"},
		{Params{Spec: "vary:-1ms"}, "must not be negative"},
		{Params{Spec: "vary:5ms:0.5:-20ms"}, "must be positive"},
		{Params{Spec: "vary:5ms:0.5:0s"}, "must be positive"},
		{Params{Spec: "vary", Seed: -1}, "negative seed"},
		{Params{Spec: "vary+diurnal+vary:1ms"}, "duplicate vary"},
		{Params{Spec: "vary:1ms:0.5:1s:2"}, "too many arguments"},
	}
)

func TestValidate(t *testing.T) {
	for _, p := range validParams {
		if err := p.Validate(); err != nil {
			t.Errorf("valid %+v rejected: %v", p, err)
		}
	}
	for _, tc := range invalidParams {
		err := tc.p.Validate()
		if err == nil {
			t.Errorf("invalid %+v accepted", tc.p)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %q does not mention %q", tc.p, err, tc.want)
		}
	}
}

// FuzzSpec feeds the -regime grammar arbitrary strings: Validate (and
// parseSpec under it) must never panic, and whatever it accepts must
// compile to the same plan twice, on the clique and on a multi-hop graph.
func FuzzSpec(f *testing.F) {
	for _, p := range validParams {
		f.Add(p.Spec, p.Seed)
	}
	for _, tc := range invalidParams {
		f.Add(tc.p.Spec, tc.p.Seed)
	}
	ring, err := wantopo.Ring(5)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		p := Params{Spec: spec, Seed: seed}
		if p.Validate() != nil || !p.Enabled() {
			return
		}
		for _, w := range []*wantopo.WAN{nil, ring} {
			a, err := NewPlan(p, w, 5)
			if err != nil {
				t.Fatalf("Validate accepted %+v, NewPlan refused it: %v", p, err)
			}
			b, err := NewPlan(p, w, 5)
			if err != nil || !reflect.DeepEqual(a, b) {
				t.Fatalf("%+v compiled to two different plans (second error: %v)", p, err)
			}
		}
	})
}

func TestPlanProperties(t *testing.T) {
	pl, err := NewPlan(Params{Spec: "churn:1s:250ms+rel", Seed: 4}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.HasChurn() || !pl.NeedsTransport() {
		t.Error("churn plan must report churn and require the transport")
	}
	pl, err = NewPlan(Params{Spec: "diurnal"}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pl.HasChurn() || pl.NeedsTransport() {
		t.Error("pure diurnal plan requires no transport")
	}
	pl, err = NewPlan(Params{Spec: "rel"}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.NeedsTransport() {
		t.Error("rel clause must force the transport")
	}
	if _, err := NewPlan(Params{}, nil, 4); err == nil {
		t.Error("empty spec compiled into a plan")
	}
}

// TestEdgeScaleDegradationOnly: the conservative parallel lookahead depends
// on every regime only ever slowing links down — latency scale >= 1, extra
// latency in [0, JITTER] and bandwidth scale in (0, 1] at every time, on
// every edge, through negative times included (pre-run probes clamp to 0).
func TestEdgeScaleDegradationOnly(t *testing.T) {
	const jitter = 5 * sim.Millisecond
	specs := []string{
		"diurnal:100ms:8",
		"congestion:16:6:70ms",
		"diurnal:300ms:4+congestion:8:2:110ms",
		"vary:5ms:0.99:20ms",
		"diurnal:300ms:4+vary:5ms:0.5:7ms",
	}
	for _, spec := range specs {
		pl, err := NewPlan(Params{Spec: spec, Seed: 11}, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		w := wantopo.Clique(4)
		for e := 0; e < w.NumEdges(); e++ {
			for _, at := range []sim.Time{-sim.Second, 0, 1, 12345678, 50 * sim.Millisecond,
				sim.Second, 3*sim.Second + 7} {
				ls, bs, extra := pl.EdgeScale(e, at)
				if ls < 1 {
					t.Fatalf("%s: edge %d at %v: latency scale %g < 1", spec, e, at, ls)
				}
				if extra < 0 || extra > jitter {
					t.Fatalf("%s: edge %d at %v: extra latency %v outside [0, %v]", spec, e, at, extra, jitter)
				}
				if bs <= 0 || bs > 1 {
					t.Fatalf("%s: edge %d at %v: bandwidth scale %g outside (0,1]", spec, e, at, bs)
				}
			}
		}
	}
}

// TestDiurnalShape: the triangle wave touches its configured factor at the
// cycle midpoint and returns to 1 at the edges (phase folded out).
func TestDiurnalShape(t *testing.T) {
	pl, err := NewPlan(Params{Spec: "diurnal:100ms:8"}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	period := 100 * sim.Millisecond
	edge := -pl.diurnalPhase
	for edge < 0 {
		edge += period
	}
	if ls, _, _ := pl.EdgeScale(0, edge); ls > 1.001 {
		t.Errorf("cycle edge scale %g, want ~1", ls)
	}
	if ls, _, _ := pl.EdgeScale(0, edge+period/2); ls < 7.9 {
		t.Errorf("cycle midpoint scale %g, want ~8", ls)
	}
}

// TestChurnDownUpConsistency: at most one cluster is down at a time, down
// intervals respect the configured duty cycle, and UpAt names a rejoin time
// that is actually up and within the down window's remainder.
func TestChurnDownUpConsistency(t *testing.T) {
	const clusters = 4
	down := 250 * sim.Millisecond
	pl, err := NewPlan(Params{Spec: "churn:1s:250ms", Seed: 2}, nil, clusters)
	if err != nil {
		t.Fatal(err)
	}
	sawDown := false
	for step := sim.Time(0); step < 10*sim.Second; step += 7 * sim.Millisecond {
		nDown := 0
		for c := 0; c < clusters; c++ {
			if !pl.ClusterDown(c, step) {
				if up := pl.UpAt(c, step); up != step {
					t.Fatalf("UpAt moved an up cluster: %v -> %v", step, up)
				}
				continue
			}
			nDown++
			sawDown = true
			up := pl.UpAt(c, step)
			if up <= step {
				t.Fatalf("cluster %d down at %v but UpAt %v not in the future", c, step, up)
			}
			if up-step > down {
				t.Fatalf("cluster %d down at %v until %v: longer than the %v window", c, step, up, down)
			}
			if pl.ClusterDown(c, up) {
				t.Fatalf("cluster %d still down at its own rejoin time %v", c, up)
			}
		}
		if nDown > 1 {
			t.Fatalf("%d clusters down at once at %v", nDown, step)
		}
	}
	if !sawDown {
		t.Error("no cluster ever churned out over 10 virtual seconds")
	}
	// A single cluster has no one to talk to and is never churned.
	solo, err := NewPlan(Params{Spec: "churn:1s:250ms", Seed: 2}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for step := sim.Time(0); step < 3*sim.Second; step += 11 * sim.Millisecond {
		if solo.ClusterDown(0, step) {
			t.Fatal("single-cluster machine churned itself out")
		}
	}
}

// TestChurnVictimRotates: over many cycles the seeded victim choice must
// spread across clusters, not pin one site forever.
func TestChurnVictimRotates(t *testing.T) {
	pl, err := NewPlan(Params{Spec: "churn:1s:250ms", Seed: 6}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for k := int64(0); k < 64; k++ {
		v := pl.churnVictim(k)
		if v < 0 || v >= 4 {
			t.Fatalf("victim %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) < 4 {
		t.Errorf("64 cycles churned only clusters %v", seen)
	}
}

// TestCongestionFlowsWellFormed: seeded flows never loop back to their own
// cluster, and every flow is routed over at least one wide-area edge.
func TestCongestionFlowsWellFormed(t *testing.T) {
	w, err := wantopo.Parse("ring", 8)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlan(Params{Spec: "congestion:24:4:80ms", Seed: 5}, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.flows) != 24 {
		t.Fatalf("asked for 24 flows, got %d", len(pl.flows))
	}
	routed := 0
	for _, ef := range pl.edgeFlows {
		routed += len(ef)
	}
	if routed == 0 {
		t.Fatal("no flow loads any edge")
	}
	for i, f := range pl.flows {
		if f.src == f.dst {
			t.Errorf("flow %d loops on cluster %d", i, f.src)
		}
	}
}

// TestDeterminism: equal parameters produce bit-identical plans — same
// phases, same victims, same scales at every probed time; a different seed
// moves at least something.
func TestDeterminism(t *testing.T) {
	mk := func(seed int64) *Plan {
		pl, err := NewPlan(Params{Spec: "diurnal:90ms:8+congestion:8:4:70ms+churn:400ms:100ms+vary:5ms:0.5:30ms", Seed: seed}, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	a, b := mk(7), mk(7)
	other := mk(8)
	diverged := false
	for _, at := range []sim.Time{0, 33 * sim.Millisecond, 217 * sim.Millisecond, 3 * sim.Second} {
		for e := 0; e < 6; e++ {
			al, ab, ax := a.EdgeScale(e, at)
			bl, bb, bx := b.EdgeScale(e, at)
			if al != bl || ab != bb || ax != bx {
				t.Fatalf("same seed diverged on edge %d at %v", e, at)
			}
			if ol, ob, ox := other.EdgeScale(e, at); ol != al || ob != ab || ox != ax {
				diverged = true
			}
		}
		for c := 0; c < 4; c++ {
			if a.ClusterDown(c, at) != b.ClusterDown(c, at) || a.UpAt(c, at) != b.UpAt(c, at) {
				t.Fatalf("same seed diverged on churn for cluster %d at %v", c, at)
			}
		}
	}
	if !diverged {
		t.Error("seeds 7 and 8 produced identical conditions everywhere probed")
	}
}

// TestVaryShape: the vary clause's extra latency spreads over [0, JITTER]
// across send times, and its bandwidth factor holds for a whole episode,
// stays within [1-BWLOSS, 1] and is redrawn at the next.
func TestVaryShape(t *testing.T) {
	const jitter, period = 5 * sim.Millisecond, 20 * sim.Millisecond
	pl, err := NewPlan(Params{Spec: "vary:5ms:0.5:20ms", Seed: 3}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := jitter, sim.Time(0)
	for at := sim.Time(0); at < 1000; at++ {
		_, _, extra := pl.EdgeScale(0, at)
		lo, hi = min(lo, extra), max(hi, extra)
	}
	if lo > jitter/4 || hi < 3*jitter/4 {
		t.Errorf("1000 draws spanned only [%v, %v] of [0, %v]", lo, hi, jitter)
	}
	start := period - pl.varyPhase // first instant of episode 1
	factors := map[float64]bool{}
	for k := sim.Time(0); k < 32; k++ {
		first := start + k*period
		ls, b0, _ := pl.EdgeScale(0, first)
		_, b1, _ := pl.EdgeScale(0, first+period-1)
		if ls != 1 {
			t.Fatalf("vary scaled latency by %g; its latency term is additive", ls)
		}
		if b0 != b1 {
			t.Fatalf("episode %d: bandwidth factor moved within the episode (%g -> %g)", k+1, b0, b1)
		}
		if b0 < 0.5 || b0 > 1 {
			t.Fatalf("episode %d: bandwidth factor %g outside [0.5, 1]", k+1, b0)
		}
		factors[b0] = true
	}
	if len(factors) < 16 {
		t.Errorf("32 episodes drew only %d distinct bandwidth factors", len(factors))
	}
}

// TestGrammarListsEveryClause keeps the one-line Grammar, which the shared
// -regime flag help prints, in step with the parser: the clause keywords in
// parseSpec's switch (read from the source, so a new case cannot be missed)
// are exactly the clauses Grammar names, and each named clause parses bare.
func TestGrammarListsEveryClause(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "regime.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var accepted []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "parseSpec" {
			ast.Inspect(fn, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							if kw, _ := strconv.Unquote(lit.Value); kw != "" {
								accepted = append(accepted, kw)
							}
						}
					}
				}
				return true
			})
		}
	}
	if len(accepted) == 0 {
		t.Fatal("found no clause keywords in parseSpec")
	}
	var named []string
	for _, part := range strings.Split(strings.ReplaceAll(Grammar, " and ", ", "), ", ") {
		kw, _, _ := strings.Cut(part, "[")
		named = append(named, kw)
		if _, err := parseSpec(kw); err != nil {
			t.Errorf("Grammar names clause %q, which does not parse: %v", kw, err)
		}
	}
	slices.Sort(accepted)
	slices.Sort(named)
	if !slices.Equal(accepted, named) {
		t.Errorf("parseSpec accepts clauses %v, Grammar names %v", accepted, named)
	}
}

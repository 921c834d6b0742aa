package par

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
	"twolayer/internal/wantopo"
)

// Test dimensions beyond the table's features: machine shapes every
// feature must run on — multi-hop routes (a ring of four clusters) and a
// wide area with no latency or per-message overhead — and a generous
// Budget, which must never change a run that completes within it.
const (
	multiHopDim Feature = 1 << (8 + iota)
	noWindowDim
	budgetDim
	testDims = multiHopDim | noWindowDim | budgetDim
)

// matrixDims are the dimensions the matrix combines, and dimNames their
// names in subtest names.
var (
	matrixDims = []Feature{Faults, Reliable, Regime, Adaptive, Trace, Record,
		NonClique, multiHopDim, noWindowDim, budgetDim}
	dimNames = []string{"Faults", "Reliable", "Regime", "Adaptive", "Trace", "Record",
		"NonClique", "MultiHop", "NoWindow", "Budget"}
)

// dimsName renders a combination as its dimension names joined by ",".
func dimsName(f Feature) string {
	var names []string
	for i, d := range matrixDims {
		if f&d != 0 {
			names = append(names, dimNames[i])
		}
	}
	return strings.Join(names, ",")
}

// capabilityRun builds a small run asking for the features in f: 3x2
// clusters (4x2 for a multi-hop ring), a 6-round shifting-ring job. A
// request for multiHopDim also gets NonClique, which it implies. Trace and
// Record cannot be asked of one Options (a run has one sink); with both,
// the run carries the Trace sink and want carries Record as well.
func capabilityRun(t *testing.T, f Feature) (topo *topology.Topology, opts Options, want Feature) {
	t.Helper()
	clusters := 3
	if f&multiHopDim != 0 {
		clusters, f = 4, f|NonClique
	}
	topo = topology.MustUniform(clusters, 2)
	opts = Options{Params: network.DefaultParams().WithWAN(2*sim.Millisecond, 1e6)}
	if f&noWindowDim != 0 {
		p := &opts.Params
		p.SendOverhead, p.RecvOverhead, p.IntraLatency, p.WANLatency, p.WANPerMessage = 0, 0, 0, 0, 0
	}
	// A timeout floor keeps the reliable transport sane at zero latency; it
	// does not turn the transport on.
	opts.Transport.RTOMin = sim.Millisecond
	if f&Faults != 0 {
		opts.Faults = faults.Params{DropRate: 0.05, DupRate: 0.05, Seed: 3}
	}
	opts.Transport.Enabled = f&Reliable != 0
	if f&Regime != 0 {
		opts.Regime = regime.Params{Spec: "diurnal:20ms:4", Seed: 5}
	}
	opts.Adaptive = f&Adaptive != 0
	switch {
	case f&Trace != 0:
		opts.Trace = trace.NewStream(topo.Procs())
	case f&Record != 0:
		opts.Trace = &callLog{}
	}
	if f&NonClique != 0 {
		w, err := wantopo.Parse("ring", clusters)
		if err != nil {
			t.Fatal(err)
		}
		opts.WAN = w
	}
	if f&budgetDim != 0 {
		opts.Budget = sim.Budget{MaxEvents: 1 << 40, MaxVirtualTime: 1000 * sim.Second}
	}
	return topo, opts, f &^ testDims
}

// runCounting runs a fresh copy of opts (its own sink) and reports how
// many ranks started the job.
func runCounting(topo *topology.Topology, opts Options, f Feature) (Result, int32, error) {
	switch {
	case f&Trace != 0:
		opts.Trace = trace.NewStream(topo.Procs())
	case f&Record != 0:
		opts.Trace = &callLog{}
	}
	var started atomic.Int32
	job := randomJob(11, 6)
	res, err := RunWith(topo, opts, func(e *Env) {
		started.Add(1)
		job(e)
	})
	return res, started.Load(), err
}

// TestCapabilityMatrix drives every pair and every triple of the table's
// features and the test dimensions through RunWith. A refused combination
// returns the table's *Unsupported with nothing run; an accepted one
// completes and reruns to a DeepEqual Result. Nothing panics.
func TestCapabilityMatrix(t *testing.T) {
	var combos []Feature
	for i, a := range matrixDims {
		for j, b := range matrixDims[i+1:] {
			combos = append(combos, a|b)
			for _, c := range matrixDims[i+j+2:] {
				combos = append(combos, a|b|c)
			}
		}
	}
	for _, asked := range combos {
		t.Run(dimsName(asked), func(t *testing.T) {
			topo, opts, want := capabilityRun(t, asked)
			got := FeaturesOf(opts)
			if want&Trace != 0 && want&Record != 0 {
				// One sink per run: the recording of a traced run is the
				// combination core asks the table about, and it is refused.
				var u *Unsupported
				if err := Check(got | Record); !errors.As(err, &u) || u.A != Record {
					t.Fatalf("Check(%v) = %v, want a recording refusal", got|Record, err)
				}
				return
			}
			if got != want {
				t.Fatalf("FeaturesOf = %v, want %v", got, want)
			}
			res, started, err := runCounting(topo, opts, want)
			if refusal := Check(want); refusal != nil {
				var u *Unsupported
				if !errors.As(err, &u) || u.Error() != refusal.Error() {
					t.Fatalf("err = %v, want the table's refusal %q", err, refusal)
				}
				if started != 0 || !reflect.DeepEqual(res, Result{}) {
					t.Fatalf("refused run did work: %d ranks started, %d events", started, res.Events)
				}
				return
			}
			if err != nil {
				t.Fatalf("accepted combination failed: %v", err)
			}
			again, _, err := runCounting(topo, opts, want)
			if err != nil || !reflect.DeepEqual(res, again) {
				t.Fatalf("rerun differs (err %v):\n%+v\n%+v", err, res, again)
			}
		})
	}
}

// TestCapabilityDecisions pins the table's verdicts on hand-picked sets, so
// a reordered or dropped row shows up as a changed decision, not only as a
// changed document.
func TestCapabilityDecisions(t *testing.T) {
	for _, c := range []struct {
		f       Feature
		refusal *Unsupported
	}{
		{0, nil},
		{Trace | NonClique, nil},
		{Regime | Adaptive, nil},
		{Faults | Reliable | Regime | NonClique | Trace, nil},
		{Record | Faults, &Unsupported{Record, Faults}},
		{Record | Reliable, &Unsupported{Record, Reliable}},
		{Record | Regime, &Unsupported{Record, Regime}},
		{Record | NonClique, &Unsupported{Record, NonClique}},
		{Record | Trace, &Unsupported{Record, Trace}},
		{Adaptive, &Unsupported{Adaptive, without | Regime}},
		{Adaptive | Faults | NonClique, &Unsupported{Adaptive, without | Regime}},
	} {
		err := Check(c.f)
		var u *Unsupported
		switch {
		case c.refusal == nil && err != nil:
			t.Errorf("%v refused: %v", c.f, err)
		case c.refusal != nil && (!errors.As(err, &u) || *u != *c.refusal):
			t.Errorf("%v: err %v, want %v", c.f, err, c.refusal)
		}
	}
}

// capabilityMarkdown renders the table as DESIGN.md shows it.
func capabilityMarkdown() string {
	var b strings.Builder
	b.WriteString("| A | B | why |\n|---|---|---|\n")
	for _, c := range capabilities {
		fmt.Fprintf(&b, "| %v | %v | %s |\n", c.a, c.b, c.why)
	}
	return b.String()
}

// TestCapabilityTableDocumented: DESIGN.md's "Capability table" section
// holds the Go table's rendering verbatim.
func TestCapabilityTableDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := capabilityMarkdown(); !strings.Contains(string(doc), want) {
		t.Errorf("DESIGN.md lacks the capability table; paste:\n%s", want)
	}
}

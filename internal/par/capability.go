package par

import (
	"strings"

	"twolayer/internal/network"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
)

// Feature names one thing a run asks of the engines. A Feature value is
// also a set of them (a bit mask): FeaturesOf derives a run's set from its
// options, and the capability table below decides, for every set, whether
// the run is refused, runs on the sequential kernel, or runs as asked.
type Feature uint16

const (
	Faults    Feature = 1 << iota // wide-area fault injection
	Reliable                      // the reliable transport, asked for explicitly
	Regime                        // a dynamic network regime
	Adaptive                      // runtime adaptation to the regime
	Trace                         // an observing trace sink (not a recorder)
	Record                        // an op-level recorder: the sink is a trace.OpSink
	NonClique                     // a wide-area graph other than the clique
	MultiHop                      // some wide-area route is longer than one hop
	Workers                       // window workers asked for (Workers >= 1)
	NoWindow                      // one cluster, or a non-positive lookahead

	// without marks the second feature of a row as one the run lacks.
	without Feature = 1 << 15
)

var featureNames = [...]string{"Faults", "Reliable", "Regime", "Adaptive", "Trace",
	"Record", "NonClique", "MultiHop", "Workers", "NoWindow"}

// String renders the set as its feature names joined by "+".
func (f Feature) String() string {
	if f&without != 0 {
		return "no " + (f &^ without).String()
	}
	var names []string
	for i, n := range featureNames {
		if f&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return strings.Join(names, "+")
}

type outcome uint8

const (
	refuse     outcome = iota // RunWithContext returns *Unsupported before building a kernel
	sequential                // Workers is ignored: the run takes the sequential kernel
)

// capability is one row of the table: it applies to a run whose features
// include a and b (or include a and lack b, for a without row).
type capability struct {
	a, b    Feature
	outcome outcome
	why     string
}

// capabilities is the one place feature combinations are decided; DESIGN.md
// renders it. A combination no row applies to runs as asked: on the
// windowed engine when it has Workers or MultiHop (multi-hop timing is
// defined by that engine at any worker count), else on the sequential one.
var capabilities = []capability{
	{Record, Faults, refuse, "op-level recording needs exactly one message per send; fault injection drops and duplicates them"},
	{Record, Reliable, refuse, "op-level recording needs exactly one message per send; the reliable transport adds retransmissions and acks"},
	{Record, Regime, refuse, "op-level recording needs stationary link speeds; a regime varies them with virtual time"},
	{Record, NonClique, refuse, "op-level recording needs the clique: the replay charges one wide-area leg per message and cannot see routes"},
	{Record, Trace, refuse, "op-level recording needs the run's one trace sink, and a trace sink is already attached"},
	{Trace, MultiHop, refuse, "tracing needs single-hop routes: multi-hop timing is the windowed engine's, and a trace sink observes one global order"},
	{MultiHop, NoWindow, refuse, "a multi-hop wide-area graph needs the windowed engine: at least two clusters and a positive lookahead"},
	{Adaptive, without | Regime, refuse, "adaptation needs a regime to adapt to; without one the run is the static run"},
	{Workers, Trace, sequential, "a trace sink observes deliveries in one global order, which only the sequential kernel has"},
	{Workers, Record, sequential, "the recorder observes sends and receives in one global order, which only the sequential kernel has"},
	{Workers, NoWindow, sequential, "one cluster has no partition, and a non-positive lookahead gives the windows no width"},
}

func (c capability) applies(f Feature) bool {
	if c.b&without != 0 {
		return f&c.a != 0 && f&(c.b&^without) == 0
	}
	return f&c.a != 0 && f&c.b != 0
}

// Unsupported is the refusal of a feature combination: the table's row
// {A, B, refuse, why}. Error returns the row's why.
type Unsupported struct{ A, B Feature }

func (u *Unsupported) Error() string {
	for _, c := range capabilities {
		if c.a == u.A && c.b == u.B {
			return c.why
		}
	}
	return u.A.String() + " with " + u.B.String() + " is unsupported"
}

// FeaturesOf returns the features a run of opts on topo asks for. It does
// no work beyond reading the options.
func FeaturesOf(topo *topology.Topology, opts Options) Feature {
	var f Feature
	set := func(on bool, g Feature) {
		if on {
			f |= g
		}
	}
	_, rec := opts.Trace.(trace.OpSink)
	params := opts.Params
	if params == (network.Params{}) {
		params = network.DefaultParams()
	}
	set(opts.Faults.Enabled(), Faults)
	set(opts.Transport.Enabled, Reliable)
	set(opts.Regime.Enabled(), Regime)
	set(opts.Adaptive, Adaptive)
	set(opts.Trace != nil && !rec, Trace)
	set(rec, Record)
	set(opts.WAN != nil && !opts.WAN.IsClique(), NonClique)
	set(opts.WAN != nil && opts.WAN.MaxHops() > 1, MultiHop)
	set(opts.Workers >= 1, Workers)
	set(topo.Clusters() < 2 || params.WANLookaheadFor(opts.WAN) <= 0, NoWindow)
	return f
}

// Check returns the table's refusal of f as an *Unsupported, or nil when
// runs with these features are supported.
func Check(f Feature) error {
	_, err := decide(f)
	return err
}

// decide looks f up in the table: the first refusal, or which engine runs it.
func decide(f Feature) (windowed bool, err error) {
	windowed = f&(Workers|MultiHop) != 0
	for _, c := range capabilities {
		if c.applies(f) && c.outcome == refuse {
			return false, &Unsupported{A: c.a, B: c.b}
		}
		windowed = windowed && !c.applies(f) // a sequential row applies
	}
	return windowed, nil
}

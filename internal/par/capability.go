package par

import (
	"strings"

	"twolayer/internal/trace"
)

// Feature names one thing a run asks of the runtime. A Feature value is
// also a set of them (a bit mask): FeaturesOf derives a run's set from its
// options, and the capability table below decides, for every set, whether
// the run is refused.
type Feature uint16

const (
	Faults    Feature = 1 << iota // wide-area fault injection
	Reliable                      // the reliable transport, asked for explicitly
	Regime                        // a dynamic network regime
	Adaptive                      // runtime adaptation to the regime
	Trace                         // an observing trace sink (not a recorder)
	Record                        // an op-level recorder: the sink is a trace.OpSink
	NonClique                     // a wide-area graph other than the clique

	// without marks the second feature of a row as one the run lacks.
	without Feature = 1 << 15
)

var featureNames = [...]string{"Faults", "Reliable", "Regime", "Adaptive", "Trace",
	"Record", "NonClique"}

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

// capability is one row of the table: it refuses a run whose features
// include a and b (or include a and lack b, for a without row).
type capability struct {
	a, b Feature
	why  string
}

// capabilities is the one place feature combinations are decided; DESIGN.md
// renders it. A combination no row applies to runs.
var capabilities = []capability{
	{Record, Faults, "op-level recording needs exactly one message per send; fault injection drops and duplicates them"},
	{Record, Reliable, "op-level recording needs exactly one message per send; the reliable transport adds retransmissions and acks"},
	{Record, Regime, "op-level recording needs stationary link speeds; a regime varies them with virtual time"},
	{Record, NonClique, "op-level recording needs the clique: the replay charges one wide-area leg per message and cannot see routes"},
	{Record, Trace, "op-level recording needs the run's one trace sink, and a trace sink is already attached"},
	{Adaptive, without | Regime, "adaptation needs a regime to adapt to; without one the run is the static run"},
}

func (c capability) applies(f Feature) bool {
	if c.b&without != 0 {
		return f&c.a != 0 && f&(c.b&^without) == 0
	}
	return f&c.a != 0 && f&c.b != 0
}

// Unsupported is the refusal of a feature combination: the table's row
// {A, B, why}. Error returns the row's why.
type Unsupported struct{ A, B Feature }

func (u *Unsupported) Error() string {
	for _, c := range capabilities {
		if c.a == u.A && c.b == u.B {
			return c.why
		}
	}
	return u.A.String() + " with " + u.B.String() + " is unsupported"
}

// FeaturesOf returns the features a run of opts asks for. It does no work
// beyond reading the options.
func FeaturesOf(opts Options) Feature {
	var f Feature
	set := func(on bool, g Feature) {
		if on {
			f |= g
		}
	}
	_, rec := opts.Trace.(trace.OpSink)
	set(opts.Faults.Enabled(), Faults)
	set(opts.Transport.Enabled, Reliable)
	set(opts.Regime.Enabled(), Regime)
	set(opts.Adaptive, Adaptive)
	set(opts.Trace != nil && !rec, Trace)
	set(rec, Record)
	set(opts.WAN != nil && !opts.WAN.IsClique(), NonClique)
	return f
}

// Check returns the table's first refusal of f as an *Unsupported, or nil
// when runs with these features are supported.
func Check(f Feature) error {
	for _, c := range capabilities {
		if c.applies(f) {
			return &Unsupported{A: c.a, B: c.b}
		}
	}
	return nil
}

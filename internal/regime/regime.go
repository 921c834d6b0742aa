// Package regime is a deterministic dynamic-scenario plane for the
// simulated wide-area interconnect. Where package faults models stationary
// unreliability (a fixed drop rate, periodic per-link outages), a regime
// models the *time-varying* conditions of a real shared WAN: diurnal
// latency/bandwidth curves, congestion from background traffic on shared
// links, latency jitter and bandwidth fluctuation (the paper's closing
// question: "Further research should study the impact of variations in
// latency and bandwidth, which often occur on wide area links"), and
// whole-cluster churn (a site leaves for an interval and rejoins).
//
// Every quantity a regime produces is a pure function of (Seed, virtual
// time, link identity) — no wall clock, no mutable state, no global RNG.
// Two runs with equal seeds see bit-identical conditions, at any worker
// count: the cluster-parallel engine can evaluate the same plan from every
// shard and get the same answers, because there is nothing to race on.
//
// Degradation-only fluctuation. A regime only ever *slows* the wide-area
// links: latency scale factors are >= 1, additive latency is >= 0 and
// bandwidth scale factors are <= 1 at all times. This is what keeps the
// conservative cluster-parallel lookahead (network.Params.WANLookaheadFor)
// a true lower bound on cross-cluster delivery — fluctuation pushes
// deliveries later, never earlier — so regime runs stay bit-identical at
// every worker count without touching the synchronization protocol.
package regime

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"twolayer/internal/sim"
	"twolayer/internal/wantopo"
)

// Params selects a regime. The zero value disables the dynamic plane
// entirely and leaves every code path byte-identical to a regime-free run.
// Params is comparable and JSON-encodes to {} when zero, so it can extend
// cache keys under `json:",omitzero"` without disturbing existing entries.
type Params struct {
	// Spec is the regime grammar: one or more clauses joined by "+".
	//
	//	diurnal[:PERIOD[:FACTOR]]
	//	    Piecewise-linear (triangle-wave) daily load curve: over each
	//	    PERIOD (default 1s) the wide-area latency scales 1 -> FACTOR -> 1
	//	    and the bandwidth 1 -> 1/FACTOR -> 1 (default FACTOR 8). The
	//	    wave's phase is seed-derived.
	//	congestion[:FLOWS[:INTENSITY[:PERIOD]]]
	//	    FLOWS seeded background flows (default 2 per cluster, at most
	//	    65536), each between a seeded cluster pair, each on for half of
	//	    every PERIOD (default 500ms) with a seeded phase. A flow loads every
	//	    wide-area link on its route (multi-hop graphs included), and a
	//	    link carrying L active flows runs at bandwidth/(1+INTENSITY*L)
	//	    with latency *(1+INTENSITY*L/4) (default INTENSITY 4).
	//	vary[:JITTER[:BWLOSS[:PERIOD]]]
	//	    Wide-area variability: every hop of a message adds a seeded
	//	    extra latency uniform in [0, JITTER] (default 20ms; 0 allowed),
	//	    and each edge's bandwidth is scaled by 1-BWLOSS*u, with u uniform
	//	    in [0,1) redrawn per edge every PERIOD (default 100ms) at a
	//	    seeded phase. BWLOSS (default 0.5) lies in [0,1).
	//	churn[:PERIOD[:DOWN]]
	//	    Whole-cluster churn: in each PERIOD (default 1s) one
	//	    seed-chosen cluster is unreachable for the first DOWN (default
	//	    PERIOD/4); the victim rotates per cycle. Messages to or from a
	//	    down cluster are dropped at the gateway, and the go-back-N
	//	    reliable transport (enabled automatically) repairs them after
	//	    the rejoin.
	//	rel
	//	    Force the reliable transport on even without churn, so regime
	//	    comparisons measure the same protocol stack.
	//
	// Example: "diurnal:400ms:8+churn:1s:250ms".
	Spec string
	// Seed drives every seeded choice (phases, churn victims, flow
	// endpoints). Runs with equal seeds see identical conditions.
	Seed int64
}

// Grammar is the spec syntax on one line — every clause parseSpec accepts,
// with its optional arguments — for flag help and error messages.
const Grammar = "diurnal[:PERIOD[:FACTOR]], congestion[:FLOWS[:INTENSITY[:PERIOD]]], " +
	"vary[:JITTER[:BWLOSS[:PERIOD]]], churn[:PERIOD[:DOWN]] and rel"

// Enabled reports whether a regime is configured.
func (p Params) Enabled() bool { return p.Spec != "" }

// Validate parses the spec and rejects malformed clauses and a negative
// seed. The zero value is valid (regime disabled).
func (p Params) Validate() error {
	if p.Spec == "" {
		if p.Seed != 0 {
			return fmt.Errorf("regime: seed %d without a spec", p.Seed)
		}
		return nil
	}
	if p.Seed < 0 {
		return fmt.Errorf("regime: negative seed %d", p.Seed)
	}
	_, err := parseSpec(p.Spec)
	return err
}

// clauses is the parsed form of a spec.
type clauses struct {
	diurnal    *diurnalClause
	congestion *congestionClause
	churn      *churnClause
	vary       *varyClause
	rel        bool
}

type diurnalClause struct {
	period sim.Time
	factor float64
}

type congestionClause struct {
	flows     int // 0 = 2 per cluster, resolved at bind time
	intensity float64
	period    sim.Time
}

type churnClause struct {
	period sim.Time
	down   sim.Time
}

type varyClause struct {
	jitter sim.Time
	bwLoss float64
	period sim.Time
}

// maxCongestionFlows bounds the congestion clause's FLOWS argument: a plan
// holds every flow and routes it at bind time, so an unbounded count from
// the command line is an allocation of the user's choosing. The studies
// use at most a few dozen.
const maxCongestionFlows = 1 << 16

// parseSpec parses the clause grammar; see Params.Spec.
func parseSpec(spec string) (clauses, error) {
	var cl clauses
	for _, part := range strings.Split(spec, "+") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		switch fields[0] {
		case "diurnal":
			if cl.diurnal != nil {
				return cl, fmt.Errorf("regime: duplicate diurnal clause in %q", spec)
			}
			d := &diurnalClause{period: sim.Second, factor: 8}
			if err := parseArgs(part, fields[1:],
				durArg(&d.period, "period", false), floatArg(&d.factor, "factor")); err != nil {
				return cl, err
			}
			if d.factor < 1 {
				return cl, fmt.Errorf("regime: diurnal factor %g must be >= 1 (regimes only degrade links)", d.factor)
			}
			cl.diurnal = d
		case "congestion":
			if cl.congestion != nil {
				return cl, fmt.Errorf("regime: duplicate congestion clause in %q", spec)
			}
			c := &congestionClause{intensity: 4, period: 500 * sim.Millisecond}
			if err := parseArgs(part, fields[1:],
				intArg(&c.flows, "flows"), floatArg(&c.intensity, "intensity"), durArg(&c.period, "period", false)); err != nil {
				return cl, err
			}
			if c.flows < 0 {
				return cl, fmt.Errorf("regime: negative congestion flow count %d", c.flows)
			}
			if c.flows > maxCongestionFlows {
				return cl, fmt.Errorf("regime: congestion flow count %d exceeds %d", c.flows, maxCongestionFlows)
			}
			if c.intensity < 0 {
				return cl, fmt.Errorf("regime: negative congestion intensity %g", c.intensity)
			}
			cl.congestion = c
		case "churn":
			if cl.churn != nil {
				return cl, fmt.Errorf("regime: duplicate churn clause in %q", spec)
			}
			ch := &churnClause{period: sim.Second}
			if err := parseArgs(part, fields[1:],
				durArg(&ch.period, "period", false), durArg(&ch.down, "down", false)); err != nil {
				return cl, err
			}
			if ch.down == 0 {
				ch.down = ch.period / 4
			}
			if ch.down >= ch.period {
				return cl, fmt.Errorf("regime: churn down time %v must be shorter than the period %v (a cluster that never rejoins cannot drain its traffic)", ch.down, ch.period)
			}
			cl.churn = ch
		case "vary":
			if cl.vary != nil {
				return cl, fmt.Errorf("regime: duplicate vary clause in %q", spec)
			}
			v := &varyClause{jitter: 20 * sim.Millisecond, bwLoss: 0.5, period: 100 * sim.Millisecond}
			if err := parseArgs(part, fields[1:],
				durArg(&v.jitter, "jitter", true), floatArg(&v.bwLoss, "bandwidth loss"), durArg(&v.period, "period", false)); err != nil {
				return cl, err
			}
			if v.bwLoss < 0 || v.bwLoss >= 1 {
				return cl, fmt.Errorf("regime: vary bandwidth loss %g outside [0,1) (a loss of 1 would stall the link forever)", v.bwLoss)
			}
			cl.vary = v
		case "rel":
			if len(fields) > 1 {
				return cl, fmt.Errorf("regime: rel clause takes no arguments (%q)", part)
			}
			cl.rel = true
		case "":
			return cl, fmt.Errorf("regime: empty clause in %q", spec)
		default:
			return cl, fmt.Errorf("regime: unknown clause %q (want %s)", fields[0], Grammar)
		}
	}
	return cl, nil
}

// argSetter parses one positional clause argument.
type argSetter struct {
	name string
	set  func(string) error
}

// durArg parses a positive duration, or a non-negative one when zeroOK.
func durArg(dst *sim.Time, name string, zeroOK bool) argSetter {
	return argSetter{name, func(s string) error {
		d, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		switch {
		case zeroOK && d < 0:
			return fmt.Errorf("must not be negative, got %v", d)
		case !zeroOK && d <= 0:
			return fmt.Errorf("must be positive, got %v", d)
		}
		*dst = sim.Time(d.Nanoseconds())
		return nil
	}}
}

func floatArg(dst *float64, name string) argSetter {
	return argSetter{name, func(s string) error {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		if v != v {
			return fmt.Errorf("must not be NaN")
		}
		*dst = v
		return nil
	}}
}

func intArg(dst *int, name string) argSetter {
	return argSetter{name, func(s string) error {
		v, err := strconv.Atoi(s)
		if err != nil {
			return err
		}
		*dst = v
		return nil
	}}
}

func parseArgs(clause string, args []string, setters ...argSetter) error {
	if len(args) > len(setters) {
		return fmt.Errorf("regime: too many arguments in clause %q", clause)
	}
	for i, a := range args {
		if a == "" {
			continue // "diurnal::16" keeps the default period
		}
		if err := setters[i].set(a); err != nil {
			return fmt.Errorf("regime: bad %s in clause %q: %v", setters[i].name, clause, err)
		}
	}
	return nil
}

// flow is one seeded background traffic flow for the congestion clause.
type flow struct {
	src, dst int
	phase    sim.Time // on/off square-wave phase offset
}

// Plan is a compiled regime bound to a wide-area graph. It is immutable
// after NewPlan and therefore safe to share across the shards of a
// cluster-parallel run: every query is a pure function of virtual time.
type Plan struct {
	p        Params
	cl       clauses
	clusters int

	// Congestion state, precomputed at bind time: the flows and, per
	// wide-area edge, the indices of the flows routed over it.
	flows     []flow
	edgeFlows [][]int32

	diurnalPhase sim.Time
	churnPhase   sim.Time
	varyPhase    sim.Time
}

// NewPlan compiles the parameters against the wide-area graph the run uses
// (the congestion clause routes its background flows over it). A nil graph
// means the fully connected clique over `clusters`.
func NewPlan(p Params, w *wantopo.WAN, clusters int) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.Enabled() {
		return nil, fmt.Errorf("regime: empty spec")
	}
	cl, err := parseSpec(p.Spec)
	if err != nil {
		return nil, err
	}
	if w == nil {
		w = wantopo.Clique(clusters)
	}
	pl := &Plan{p: p, cl: cl, clusters: clusters}
	if d := cl.diurnal; d != nil {
		pl.diurnalPhase = sim.Time(pl.hash(saltDiurnalPhase, 0) % uint64(d.period))
	}
	if ch := cl.churn; ch != nil {
		pl.churnPhase = sim.Time(pl.hash(saltChurnPhase, 0) % uint64(ch.period))
	}
	if v := cl.vary; v != nil {
		pl.varyPhase = sim.Time(pl.hash(saltVaryPhase, 0) % uint64(v.period))
	}
	if c := cl.congestion; c != nil {
		nf := c.flows
		if nf == 0 {
			nf = 2 * clusters
		}
		pl.flows = make([]flow, nf)
		pl.edgeFlows = make([][]int32, w.NumEdges())
		for i := range pl.flows {
			f := &pl.flows[i]
			f.src = int(pl.hash(saltFlowSrc, uint64(i)) % uint64(clusters))
			if clusters > 1 {
				f.dst = int(pl.hash(saltFlowDst, uint64(i)) % uint64(clusters-1))
				if f.dst >= f.src {
					f.dst++
				}
			}
			f.phase = sim.Time(pl.hash(saltFlowPhase, uint64(i)) % uint64(c.period))
			for _, id := range w.Route(f.src, f.dst) {
				pl.edgeFlows[id] = append(pl.edgeFlows[id], int32(i))
			}
		}
	}
	return pl, nil
}

// Params returns the plan's configuration.
func (pl *Plan) Params() Params { return pl.p }

// HasChurn reports whether the regime includes whole-cluster churn.
func (pl *Plan) HasChurn() bool { return pl.cl.churn != nil }

// NeedsTransport reports whether runs under this regime require the
// reliable transport: churn drops messages (they must be repaired), and the
// rel clause requests the transport explicitly.
func (pl *Plan) NeedsTransport() bool { return pl.cl.churn != nil || pl.cl.rel }

// Stream salts for the seeded choices.
const (
	saltDiurnalPhase = iota + 1
	saltChurnPhase
	saltChurnPick
	saltFlowSrc
	saltFlowDst
	saltFlowPhase
	saltVaryPhase
	saltVaryLat
	saltVaryBW
)

// mix64 is the splitmix64 finalizer, the same construction packages faults
// and par use for their deterministic streams.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash folds (seed, salt, index) into a uniform 64-bit value.
func (pl *Plan) hash(salt uint64, idx uint64) uint64 {
	h := mix64(uint64(pl.p.Seed) ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ salt<<48)
	return mix64(h ^ idx)
}

// diurnalScale returns the triangle-wave load scale at time t: 1 at the
// cycle edges, factor at the midpoint, linear in between.
func (pl *Plan) diurnalScale(t sim.Time) float64 {
	d := pl.cl.diurnal
	x := float64((t+pl.diurnalPhase)%d.period) / float64(d.period)
	tri := 1 - abs(2*x-1) // 0 -> 1 -> 0 over the cycle
	return 1 + (d.factor-1)*tri
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// edgeLoad counts the background flows active on the given wide-area edge
// at time t.
func (pl *Plan) edgeLoad(edgeID int, t sim.Time) int {
	c := pl.cl.congestion
	n := 0
	for _, fi := range pl.edgeFlows[edgeID] {
		f := &pl.flows[fi]
		if (t+f.phase)%c.period < c.period/2 {
			n++
		}
	}
	return n
}

// varyDraw is the vary clause's seeded value for (stream, edge, index):
// pure in its arguments, so every engine and shard draws the same number.
func (pl *Plan) varyDraw(salt uint64, edgeID int, idx uint64) uint64 {
	return mix64(pl.hash(salt, uint64(edgeID)) ^ idx)
}

// EdgeScale returns the conditions of one wide-area edge at virtual time t:
// latency and bandwidth scale factors, and an extra latency added after
// scaling. The latency scale is always >= 1, the extra latency >= 0 and the
// bandwidth scale in (0, 1]: regimes only degrade links (see the package
// comment for why that preserves the parallel lookahead).
func (pl *Plan) EdgeScale(edgeID int, t sim.Time) (latScale, bwScale float64, latExtra sim.Time) {
	latScale, bwScale = 1, 1
	if t < 0 {
		t = 0
	}
	if pl.cl.diurnal != nil {
		s := pl.diurnalScale(t)
		latScale *= s
		bwScale /= s
	}
	if c := pl.cl.congestion; c != nil && edgeID < len(pl.edgeFlows) {
		if l := pl.edgeLoad(edgeID, t); l > 0 {
			load := c.intensity * float64(l)
			latScale *= 1 + load/4
			bwScale /= 1 + load
		}
	}
	if v := pl.cl.vary; v != nil {
		if v.jitter > 0 {
			latExtra = sim.Time(pl.varyDraw(saltVaryLat, edgeID, uint64(t)) % uint64(v.jitter+1))
		}
		if v.bwLoss > 0 {
			episode := uint64((t + pl.varyPhase) / v.period)
			u := float64(pl.varyDraw(saltVaryBW, edgeID, episode)>>11) / (1 << 53)
			bwScale *= 1 - v.bwLoss*u
		}
	}
	return latScale, bwScale, latExtra
}

// churnVictim returns the cluster churned out during cycle k.
func (pl *Plan) churnVictim(k int64) int {
	return int(pl.hash(saltChurnPick, uint64(k)) % uint64(pl.clusters))
}

// ClusterDown reports whether cluster c is churned out at virtual time t.
func (pl *Plan) ClusterDown(c int, t sim.Time) bool {
	ch := pl.cl.churn
	if ch == nil || pl.clusters < 2 || t < 0 {
		return false
	}
	tt := t + pl.churnPhase
	if int64(tt)%int64(ch.period) >= int64(ch.down) {
		return false
	}
	return pl.churnVictim(int64(tt)/int64(ch.period)) == c
}

// UpAt returns the time cluster c rejoins if it is down at t, and t itself
// otherwise. Adaptive transports use it to schedule a retransmission just
// after the rejoin instead of backing off blindly.
func (pl *Plan) UpAt(c int, t sim.Time) sim.Time {
	if !pl.ClusterDown(c, t) {
		return t
	}
	ch := pl.cl.churn
	tt := int64(t + pl.churnPhase)
	cycleStart := tt - tt%int64(ch.period)
	return sim.Time(cycleStart+int64(ch.down)) - pl.churnPhase
}

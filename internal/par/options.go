package par

import (
	"context"
	"fmt"

	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
	"twolayer/internal/wantopo"
)

// Options configures a run beyond the basic Run arguments: the wide-area
// graph, fault injection, dynamic regimes (wide-area variability among
// them), event tracing, budgets and in-run parallelism.
type Options struct {
	// Params sets the interconnect speeds; the zero value means
	// network.DefaultParams().
	Params network.Params
	// WAN selects the wide-area graph (see wantopo); nil means the paper's
	// fully connected clique. Cross-cluster messages follow the graph's
	// routes store-and-forward, booking every hop's link.
	WAN *wantopo.WAN
	// Seed drives the per-rank random streams.
	Seed int64
	// Trace, if non-nil, receives every message and compute span; a
	// *trace.Stream aggregates them online in constant memory.
	Trace trace.Sink
	// Faults injects deterministic wide-area faults (drops, duplicates,
	// reordering jitter, outages). The zero value disables injection and
	// leaves every code path byte-identical to a fault-free run. Non-zero
	// faults automatically route wide-area sends through the reliable
	// go-back-N channel.
	Faults faults.Params
	// Transport tunes the reliable channel; the zero value uses defaults.
	// Transport.Enabled turns the channel on even without faults.
	Transport Transport
	// Regime applies a deterministic time-varying network regime (diurnal
	// load curves, background-traffic congestion, latency and bandwidth
	// variability, whole-cluster churn; see package regime). The zero value
	// disables the dynamic plane and leaves every code path byte-identical
	// to a regime-free run. Regimes with churn automatically route
	// wide-area sends through the reliable transport, like fault injection
	// does.
	Regime regime.Params
	// Adaptive lets the runtime layers react to the regime: the reliable
	// transport tunes its retransmission timeout and window from observed
	// ack round trips and schedules around known churn windows. It has no
	// effect without a Regime (static conditions give adaptation nothing to
	// observe), and applications opt into their own adaptations through
	// Env.Adaptive.
	Adaptive bool
	// Budget bounds the run: virtual-time and event ceilings plus the
	// livelock watchdog (see sim.Budget). The zero value imposes no limits,
	// and a run that completes within its budgets is bit-identical to the
	// same run with no budgets at all.
	Budget sim.Budget
	// Workers >= 1 runs the simulation itself in parallel: each cluster
	// becomes a logical process with its own kernel, synchronized in
	// conservative time windows under the wide-area lookahead, with up to
	// Workers clusters executing concurrently. Results are bit-identical
	// for every value, including the sequential default (0). Runs that the
	// partitioning cannot handle — a single cluster, a non-positive
	// lookahead (zero-latency WAN), or a Trace sink on the clique —
	// silently use the sequential engine regardless of Workers.
	Workers int
}

// RunWith executes job like Run, with extended options.
func RunWith(topo *topology.Topology, opts Options, job Job) (Result, error) {
	return RunWithContext(nil, topo, opts, job)
}

// RunWithContext is RunWith under wall-clock supervision: if ctx expires or
// is canceled the simulation stops at the next event boundary and the error
// wraps a *sim.RunError of kind sim.StopDeadline. A nil ctx disables the
// deadline.
func RunWithContext(ctx context.Context, topo *topology.Topology, opts Options, job Job) (Result, error) {
	if opts.Params == (network.Params{}) {
		opts.Params = network.DefaultParams()
	}
	// A negative latency would schedule deliveries in the past, and a zero,
	// negative or NaN bandwidth has no transmission time.
	if opts.Params.WANLatency < 0 || !(opts.Params.WANBandwidth > 0) {
		return Result{}, fmt.Errorf("par: invalid wide-area speed: latency %v, bandwidth %g bytes/s",
			opts.Params.WANLatency, opts.Params.WANBandwidth)
	}
	return runSim(ctx, topo, opts, job)
}

// Package twolayer reproduces "Sensitivity of Parallel Applications to
// Large Differences in Bandwidth and Latency in Two-Layer Interconnects"
// (Plaat, Bal, Hofman, Kielmann; HPCA 1999) as a Go library.
//
// It provides, from the bottom up:
//
//   - a deterministic discrete-event simulator of a cluster-of-clusters
//     machine with Myrinet-class intra-cluster links and configurable
//     ATM-class wide-area links (the paper's DAS testbed with its delay
//     loops),
//   - a message-passing SPMD runtime (send/receive/RPC/barrier) on top of
//     the simulated interconnect,
//   - the paper's six applications (Water, Barnes-Hut, TSP, ASP, Awari,
//     FFT), each in its original uniform-network form and its cluster-aware
//     optimized form, performing real, verified computation,
//   - the fourteen MPI-1 collectives in flat and hierarchical (MagPIe-like)
//     variants,
//   - the sensitivity-study harness that regenerates every table and
//     figure of the paper's evaluation.
//
// # Quick start
//
//	topo := twolayer.DAS() // 4 clusters x 8 processors
//	params := twolayer.DefaultParams().WithWAN(30*twolayer.Millisecond, 0.3e6)
//	app, _ := twolayer.AppByName("Water")
//	res, err := twolayer.Experiment{
//		App: app, Scale: twolayer.PaperScale, Optimized: true,
//		Topo: topo, Params: params, Verify: true,
//	}.Run()
//
// Custom parallel programs run against the same machine model:
//
//	res, err := twolayer.Run(topo, params, 1, func(e *twolayer.Env) {
//		e.Send((e.Rank()+1)%e.Size(), 1, "token", 4096)
//		e.Recv(1)
//	})
//
// See example_test.go for complete, checked programs and DESIGN.md /
// EXPERIMENTS.md for the experiment inventory and measured results.
package twolayer

import (
	"twolayer/internal/apps"
	"twolayer/internal/collective"
	"twolayer/internal/core"
	"twolayer/internal/faults"
	"twolayer/internal/micro"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
)

// Core simulation types, re-exported from the internal packages.
type (
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Topology describes a cluster-of-clusters machine.
	Topology = topology.Topology
	// NetworkParams sets the interconnect speeds.
	NetworkParams = network.Params
	// LinkStats is per-link traffic accounting.
	LinkStats = network.LinkStats
	// Env is one processor's view of the SPMD runtime.
	Env = par.Env
	// Job is an SPMD program body, run once per processor.
	Job = par.Job
	// Msg is a delivered message.
	Msg = par.Msg
	// Tag distinguishes message streams.
	Tag = par.Tag
	// Result summarizes a completed run.
	Result = par.Result
)

// Virtual-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Problem scales for the applications.
const (
	TinyScale  = apps.Tiny
	SmallScale = apps.Small
	PaperScale = apps.Paper
)

// Scale selects an application problem size.
type Scale = apps.Scale

// AppInfo is an application registry entry (name, Table 2 metadata,
// constructor).
type AppInfo = apps.Info

// AppInstance is one configured application run.
type AppInstance = apps.Instance

// Experiment is one configured sensitivity-study run.
type Experiment = core.Experiment

// FaultParams configures deterministic wide-area fault injection (message
// loss, duplication, reordering jitter, periodic outages) for
// Experiment.Faults; the zero value injects nothing. See internal/faults.
type FaultParams = faults.Params

// TransportStats are the go-back-N reliable-transport counters a
// fault-injected run reports (Result.Transport).
type TransportStats = trace.TransportStats

// Machine construction.
var (
	// NewTopology builds a machine from per-cluster processor counts.
	NewTopology = topology.New
	// Uniform builds equal-sized clusters.
	Uniform = topology.Uniform
	// DAS is the paper's 4x8 configuration.
	DAS = topology.DAS
	// SingleCluster is the all-fast-network baseline machine.
	SingleCluster = topology.SingleCluster
)

// DefaultParams returns the testbed speeds: 20 us / 50 MByte/s inside
// clusters, 0.5 ms / 6 MByte/s between them; use WithWAN to sweep the gap.
func DefaultParams() NetworkParams { return network.DefaultParams() }

// Run executes an SPMD job on the simulated machine and returns its
// timing and traffic. The seed drives the per-rank random streams; equal
// inputs give bit-identical results.
func Run(topo *Topology, params NetworkParams, seed int64, job Job) (Result, error) {
	return par.Run(topo, params, seed, job)
}

// Apps returns the six-application suite in Table 1 order.
func Apps() []AppInfo { return core.Apps() }

// AppByName finds an application by its paper name ("Water", "Barnes-Hut",
// "TSP", "ASP", "Awari", "FFT").
func AppByName(name string) (AppInfo, error) { return core.AppByName(name) }

// Sweep axes used in the paper's evaluation.
var (
	// PaperBandwidths are the wide-area bandwidth settings (bytes/s).
	PaperBandwidths = core.Bandwidths
	// PaperLatencies are the one-way wide-area latency settings.
	PaperLatencies = core.Latencies
)

// Sensitivity-study harness types.
type (
	// Baselines looks up single-cluster reference runtimes through the run cache.
	Baselines = core.Baselines
	// Table1Row is one row of the paper's Table 1.
	Table1Row = core.Table1Row
	// Figure1Point is one application's Figure 1 traffic point.
	Figure1Point = core.Figure1Point
	// Figure3Panel is one of the paper's twelve speedup panels.
	Figure3Panel = core.Figure3Panel
	// Figure3Options narrows a Figure 3 sweep.
	Figure3Options = core.Figure3Options
	// Figure4Curve is one Figure 4 communication-time curve.
	Figure4Curve = core.Figure4Curve
	// GapResult is the acceptable-NUMA-gap analysis for one variant.
	GapResult = core.GapResult
	// ShapeResult is one cluster-structure measurement.
	ShapeResult = core.ShapeResult
	// CollectiveResult compares flat and hierarchical collectives.
	CollectiveResult = core.CollectiveResult
	// RunCache memoizes experiment results across sweeps.
	RunCache = core.RunCache
	// RunKey identifies a deterministic experiment in a RunCache.
	RunKey = core.RunKey
)

// Harness entry points, re-exported.
var (
	NewBaselines         = core.NewBaselines
	NewRunCache          = core.NewRunCache
	RelativeSpeedup      = core.RelativeSpeedup
	CommTimePercent      = core.CommTimePercent
	Table1               = core.Table1
	Table2               = core.Table2
	Figure1              = core.Figure1
	Figure3              = core.Figure3
	Figure4Bandwidth     = core.Figure4Bandwidth
	Figure4Latency       = core.Figure4Latency
	GapAnalysis          = core.GapAnalysis
	ClusterShapeStudy    = core.ClusterShapeStudy
	CollectiveComparison = core.CollectiveComparison
	RenderTable1         = core.RenderTable1
	RenderTable2         = core.RenderTable2
	RenderFigure1        = core.RenderFigure1
	RenderFigure3Panel   = core.RenderFigure3Panel
	RenderFigure4        = core.RenderFigure4
	RenderGaps           = core.RenderGaps
	RenderShapes         = core.RenderShapes
	RenderCollectives    = core.RenderCollectives
)

// Collective communication (Section 6 / MagPIe).
type (
	// Comm provides MPI-1 collective operations over an Env.
	Comm = collective.Comm
	// CollectiveStyle selects flat or hierarchical algorithms.
	CollectiveStyle = collective.Style
	// ReduceOp is an element-wise reduction operator.
	ReduceOp = collective.Op
)

// Collective algorithm families.
const (
	Flat         = collective.Flat
	Hierarchical = collective.Hierarchical
)

// Built-in reduction operators.
var (
	SumOp  = collective.Sum
	ProdOp = collective.Prod
	MaxOp  = collective.Max
	MinOp  = collective.Min
)

// NewComm creates a collective communicator for e; every rank must build
// one with the same style and issue the same sequence of collective calls.
func NewComm(e *Env, style CollectiveStyle) *Comm { return collective.New(e, style) }

// CollectiveOps lists the fourteen MPI-1 collective operation names.
var CollectiveOps = collective.OpNames

// Extended run options and tracing.
type (
	// RunOptions configures traced, faulted or regime runs.
	RunOptions = par.Options
	// Unsupported is the capability table's refusal of a feature
	// combination in RunOptions (DESIGN.md, "Capability table").
	Unsupported = par.Unsupported
	// TraceStream folds per-message and per-compute-span events into
	// constant-memory aggregates.
	TraceStream = trace.Stream
	// TraceMessage is one recorded message.
	TraceMessage = trace.Message
	// TraceSpan is one recorded compute interval. With TraceMessage and
	// TransportStats it lets a caller write its own RunOptions.Trace sink.
	TraceSpan = trace.Span
	// TraceSummary aggregates a trace.
	TraceSummary = trace.Summary
)

// RunWith executes an SPMD job with extended options (tracing, fault
// injection, dynamic regimes such as wide-area variability).
func RunWith(topo *Topology, opts RunOptions, job Job) (Result, error) {
	return par.RunWith(topo, opts, job)
}

// NewTraceStream creates a trace sink for a machine of the given size; pass
// it via RunOptions.Trace or Experiment.Trace.
func NewTraceStream(procs int) *TraceStream { return trace.NewStream(procs) }

// Interconnect microbenchmarks (the null-RPC / stream decomposition of
// Section 5.2).
type MicroResult = micro.Result

// Micro entry points.
var (
	MicroPatterns = micro.Patterns
	MicroMeasure  = micro.Measure
	RenderMicro   = micro.Render
)

// KernelResult compares one MPI-style kernel, unchanged between the flat and
// the hierarchical collective library (Section 6's application-kernel claim).
type KernelResult = core.KernelResult

// MPI-kernel comparison entry points.
var (
	MPIKernelComparison = core.MPIKernelComparison
	RenderKernels       = core.RenderKernels
)

package twolayer_test

import (
	"fmt"
	"math"

	"twolayer"
)

// The simplest possible program: a ring token passed over the two-layer
// machine, with deterministic timing.
func ExampleRun() {
	topo := twolayer.DAS()
	res, err := twolayer.Run(topo, twolayer.DefaultParams(), 1, func(e *twolayer.Env) {
		next := (e.Rank() + 1) % e.Size()
		prev := (e.Rank() + e.Size() - 1) % e.Size()
		e.Send(next, 1, e.Rank(), 64)
		e.RecvFrom(prev, 1)
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("wide-area messages:", res.WAN.Messages)
	// Output:
	// wide-area messages: 4
}

// Running one of the paper's applications at a chosen NUMA gap and
// verifying its computed result.
func ExampleExperiment() {
	app, _ := twolayer.AppByName("TSP")
	res, err := twolayer.Experiment{
		App:       app,
		Scale:     twolayer.TinyScale,
		Optimized: true,
		Topo:      twolayer.DAS(),
		Params:    twolayer.DefaultParams().WithWAN(10*twolayer.Millisecond, 1e6),
		Verify:    true,
	}.Run()
	if err != nil {
		panic(err)
	}
	fmt.Println("verified:", res.Elapsed > 0)
	// Output:
	// verified: true
}

// Collective operations in the hierarchical (MagPIe) style: a global sum.
func ExampleNewComm() {
	topo := twolayer.DAS()
	var sum float64
	_, err := twolayer.Run(topo, twolayer.DefaultParams(), 1, func(e *twolayer.Env) {
		comm := twolayer.NewComm(e, twolayer.Hierarchical)
		out := comm.Allreduce([]float64{1}, twolayer.SumOp)
		if e.Rank() == 0 {
			sum = out[0]
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("sum:", sum)
	// Output:
	// sum: 32
}

// Tracing a run: where do the bytes go?
func ExampleNewTraceStream() {
	topo := twolayer.DAS()
	tr := twolayer.NewTraceStream(topo.Procs())
	_, err := twolayer.RunWith(topo, twolayer.RunOptions{Trace: tr},
		func(e *twolayer.Env) {
			if e.Rank() == 0 {
				e.Send(8, 1, nil, 5000) // cluster 0 -> cluster 1
			}
			if e.Rank() == 8 {
				e.Recv(1)
			}
		})
	if err != nil {
		panic(err)
	}
	s := tr.Summarize()
	fmt.Printf("messages: %d, wide-area bytes: %d\n", s.Messages, s.WANBytes)
	// Output:
	// messages: 1, wide-area bytes: 5000
}

// Quickstart: one application on the simulated two-layer machine, the
// all-fast-network reference the paper normalizes against, and what the
// NUMA gap does to the original and the cluster-aware program.
func ExampleNewBaselines() {
	app, err := twolayer.AppByName("Water")
	if err != nil {
		panic(err)
	}
	topo := twolayer.DAS() // 4 clusters x 8 processors

	// The all-fast-network reference the paper normalizes against.
	base := twolayer.NewBaselines(twolayer.PaperScale)
	tl, err := base.SingleCluster(app, topo.Procs())
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s on one 32-processor cluster: %v\n\n", app.Name, tl)

	// Slow the wide-area links down and compare the original program with
	// the cluster-aware one.
	for _, lat := range []twolayer.Time{
		500 * twolayer.Microsecond, 30 * twolayer.Millisecond,
	} {
		params := twolayer.DefaultParams().WithWAN(lat, 0.3e6)
		for _, optimized := range []bool{false, true} {
			res, err := twolayer.Experiment{
				App: app, Scale: twolayer.PaperScale, Optimized: optimized,
				Topo: topo, Params: params, Verify: true,
			}.Run()
			if err != nil {
				panic(err)
			}
			variant := "original "
			if optimized {
				variant = "optimized"
			}
			fmt.Printf("WAN %8v / 0.3 MByte/s, %s: %8v (%.0f%% of the fast-network run, verified)\n",
				lat, variant, res.Elapsed, twolayer.RelativeSpeedup(tl, res.Elapsed))
		}
	}
	fmt.Println("\nThe cluster-aware version hides an order of magnitude more NUMA gap.")
	// Output:
	// Water on one 32-processor cluster: 9.178s
	//
	// WAN 500.000us / 0.3 MByte/s, original :  25.186s (36% of the fast-network run, verified)
	// WAN 500.000us / 0.3 MByte/s, optimized:  10.713s (86% of the fast-network run, verified)
	// WAN 30.000ms / 0.3 MByte/s, original :  26.093s (35% of the fast-network run, verified)
	// WAN 30.000ms / 0.3 MByte/s, optimized:  10.984s (84% of the fast-network run, verified)
	//
	// The cluster-aware version hides an order of magnitude more NUMA gap.
}

// Is an application class worth running on a computational grid? A Figure 3
// row for latency-bound TSP and bandwidth-hungry FFT across wide-area
// latencies, and the largest gap at which each still reaches 60 % of the
// single-cluster speed.
func ExampleFigure3() {
	panels, err := twolayer.Figure3(twolayer.SmallScale, twolayer.Figure3Options{
		Apps: []string{"TSP", "FFT"},
		Latencies: []twolayer.Time{
			500 * twolayer.Microsecond,
			10 * twolayer.Millisecond,
			100 * twolayer.Millisecond,
			300 * twolayer.Millisecond,
		},
		Bandwidths: []float64{6.3e6, 0.3e6},
	})
	if err != nil {
		panic(err)
	}
	for _, p := range panels {
		fmt.Println(twolayer.RenderFigure3Panel(p))
	}

	gaps := twolayer.GapAnalysis(panels, 60)
	fmt.Println(twolayer.RenderGaps(gaps, 60))
	fmt.Println("TSP's distributed work queue survives wide-area latencies; the FFT")
	fmt.Println("transpose pattern does not — matching the paper's conclusion that the")
	fmt.Println("grid-feasible application set includes medium-grain programs, with")
	fmt.Println("transpose-like communication as the stubborn exception.")
	// Output:
	// TSP (unoptimized) lat\bw  6.3MB/s  0.3MB/s
	// ------------------------  -------  -------
	// 500.000us                 96.6%    93.7%
	// 10.000ms                  62.1%    61.0%
	// 100.000ms                 14.6%    14.6%
	// 300.000ms                 9.2%     9.2%
	//
	// TSP (optimized) lat\bw  6.3MB/s  0.3MB/s
	// ----------------------  -------  -------
	// 500.000us               99.4%    99.3%
	// 10.000ms                89.2%    89.1%
	// 100.000ms               18.7%    18.7%
	// 300.000ms               6.7%     6.6%
	//
	// FFT (unoptimized) lat\bw  6.3MB/s  0.3MB/s
	// ------------------------  -------  -------
	// 500.000us                 19.4%    1.2%
	// 10.000ms                  5.7%     1.1%
	// 100.000ms                 0.7%     0.5%
	// 300.000ms                 0.2%     0.2%
	//
	// Program (>=60%)  Variant      Bandwidth gap  Latency gap
	// ---------------  -----------  -------------  -----------
	// TSP              unoptimized  167x           500x
	// TSP              optimized    167x           500x
	// FFT              unoptimized  0x             0x
	//
	// TSP's distributed work queue survives wide-area latencies; the FFT
	// transpose pattern does not — matching the paper's conclusion that the
	// grid-feasible application set includes medium-grain programs, with
	// transpose-like communication as the stubborn exception.
}

// The hierarchical collective library (the paper's Section 6 system) used
// directly, and its advantage over flat trees growing with the wide-area
// latency.
func ExampleNewComm_latencySweep() {
	topo, err := twolayer.Uniform(8, 4) // 8 clusters of 4
	if err != nil {
		panic(err)
	}

	// Direct use of the collective API inside a parallel program: a global
	// sum via Allreduce, hierarchical style.
	res, err := twolayer.Run(topo, twolayer.DefaultParams(), 1, func(e *twolayer.Env) {
		comm := twolayer.NewComm(e, twolayer.Hierarchical)
		out := comm.Allreduce([]float64{float64(e.Rank())}, twolayer.SumOp)
		if e.Rank() == 0 {
			fmt.Printf("Allreduce over %d ranks: sum = %.0f (expected %d)\n",
				e.Size(), out[0], e.Size()*(e.Size()-1)/2)
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("completed in %v of virtual time\n\n", res.Elapsed)

	// Flat vs hierarchical across latencies: the MagPIe effect.
	fmt.Println("Allreduce, flat vs hierarchical, 64 elements:")
	for _, lat := range []twolayer.Time{
		twolayer.Millisecond, 10 * twolayer.Millisecond, 100 * twolayer.Millisecond,
	} {
		params := twolayer.DefaultParams().WithWAN(lat, 1e6)
		results, err := twolayer.CollectiveComparison(topo, params, 64, 1)
		if err != nil {
			panic(err)
		}
		for _, r := range results {
			if r.Op == "Allreduce" {
				fmt.Printf("  WAN latency %8v: flat %10v, hierarchical %10v (%.1fx)\n",
					lat, r.Flat, r.Hier, r.Speedup)
			}
		}
	}
	fmt.Println("\nEvery payload crosses each slow link exactly once in the hierarchical")
	fmt.Println("algorithms, so their advantage grows with the latency gap.")
	// Output:
	// Allreduce over 32 ranks: sum = 496 (expected 496)
	// completed in 1.385ms of virtual time
	//
	// Allreduce, flat vs hierarchical, 64 elements:
	//   WAN latency  1.000ms: flat   10.120ms, hierarchical    3.609ms (2.8x)
	//   WAN latency 10.000ms: flat   64.120ms, hierarchical   21.609ms (3.0x)
	//   WAN latency 100.000ms: flat  604.120ms, hierarchical  201.609ms (3.0x)
	//
	// Every payload crosses each slow link exactly once in the hierarchical
	// algorithms, so their advantage grows with the latency gap.
}

// stencil is a 1-D iterative Jacobi smoother with halo exchange, a program
// that is not in the paper's suite: each rank owns a slab and trades
// boundary cells with its neighbours every iteration. It returns the final
// global residual; hierarchical selects the style of the residual's
// reduction.
func stencil(e *twolayer.Env, hierarchical bool) float64 {
	const (
		cells      = 1 << 14
		iterations = 30
		haloTag    = 1
		cellBytes  = 8
		cellCost   = 50 * twolayer.Microsecond
	)
	style := twolayer.Flat
	if hierarchical {
		style = twolayer.Hierarchical
	}
	comm := twolayer.NewComm(e, style)

	lo := e.Rank() * cells / e.Size()
	hi := (e.Rank() + 1) * cells / e.Size()
	n := hi - lo
	cur := make([]float64, n+2) // with ghost cells
	for i := 1; i <= n; i++ {
		x := float64(lo+i-1) / cells
		cur[i] = math.Sin(13*x) + 0.3*math.Cos(57*x)
	}
	next := make([]float64, n+2)

	var residual float64
	for it := 0; it < iterations; it++ {
		// Halo exchange with neighbours (asynchronous sends, tag by iteration).
		tag := twolayer.Tag(haloTag + it)
		if e.Rank() > 0 {
			e.Send(e.Rank()-1, tag, cur[1], cellBytes)
		}
		if e.Rank() < e.Size()-1 {
			e.Send(e.Rank()+1, tag, cur[n], cellBytes)
		}
		if e.Rank() > 0 {
			cur[0] = e.RecvFrom(e.Rank()-1, tag).Data.(float64)
		}
		if e.Rank() < e.Size()-1 {
			cur[n+1] = e.RecvFrom(e.Rank()+1, tag).Data.(float64)
		}
		// Smooth and measure local change.
		local := 0.0
		for i := 1; i <= n; i++ {
			next[i] = (cur[i-1] + 2*cur[i] + cur[i+1]) / 4
			d := next[i] - cur[i]
			local += d * d
		}
		e.ComputeUnits(int64(n), cellCost)
		cur, next = next, cur
		// Global residual: the collective whose style we vary.
		residual = comm.Allreduce([]float64{local}, twolayer.SumOp)[0]
	}
	return residual
}

// A new parallel program written against the SPMD API and its own
// sensitivity to the NUMA gap, with a flat and a hierarchical residual
// reduction: the workflow for an application that is not in the paper's
// suite.
func ExampleRun_stencil() {
	topo, err := twolayer.Uniform(4, 8)
	if err != nil {
		panic(err)
	}
	baseTopo := twolayer.SingleCluster(32)

	baseline, err := twolayer.Run(baseTopo, twolayer.DefaultParams(), 1, func(e *twolayer.Env) {
		stencil(e, false)
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("stencil on one 32-processor cluster: %v\n\n", baseline.Elapsed)
	fmt.Println("latency      flat reduce     hierarchical reduce")

	var wantResidual float64
	for _, lat := range []twolayer.Time{
		500 * twolayer.Microsecond, 3300 * twolayer.Microsecond, 10 * twolayer.Millisecond,
	} {
		params := twolayer.DefaultParams().WithWAN(lat, 1e6)
		row := fmt.Sprintf("%-10v", lat)
		for _, hier := range []bool{false, true} {
			var got float64
			res, err := twolayer.Run(topo, params, 1, func(e *twolayer.Env) {
				r := stencil(e, hier)
				if e.Rank() == 0 {
					got = r
				}
			})
			if err != nil {
				panic(err)
			}
			if wantResidual == 0 {
				wantResidual = got
			} else if math.Abs(got-wantResidual) > 1e-9*math.Abs(wantResidual) {
				panic(fmt.Sprintf("residual diverged: %g vs %g", got, wantResidual))
			}
			row += fmt.Sprintf("  %10v (%3.0f%%)", res.Elapsed,
				twolayer.RelativeSpeedup(baseline.Elapsed, res.Elapsed))
		}
		fmt.Println(row)
	}
	fmt.Println("\nThe halo exchange is already cluster-friendly (only boundary ranks")
	fmt.Println("cross the wide area); the per-iteration global reduction is what the")
	fmt.Println("gap punishes, and the hierarchical collective masks most of it.")
	// Output:
	// stencil on one 32-processor cluster: 777.461ms
	//
	// latency      flat reduce     hierarchical reduce
	// 500.000us    850.495ms ( 91%)   828.219ms ( 94%)
	// 3.300ms         1.189s ( 65%)      1.080s ( 72%)
	// 10.000ms        2.000s ( 39%)      1.683s ( 46%)
	//
	// The halo exchange is already cluster-friendly (only boundary ranks
	// cross the wide area); the per-iteration global reduction is what the
	// gap punishes, and the hierarchical collective masks most of it.
}

// piIntervals is the integrator's work size.
const piIntervals = 1 << 20

// computePi is an MPI-shaped numerical integrator (midpoint rule over [0,1]
// of 4/(1+x^2)): broadcast of the work size, local computation, reduction of
// the partial sums, all on the collective communicator.
func computePi(comm *twolayer.Comm, e *twolayer.Env) float64 {
	// Root broadcasts the interval count (as MPI programs do).
	var n []float64
	if e.Rank() == 0 {
		n = []float64{piIntervals}
	}
	n = comm.Bcast(0, n)
	steps := int(n[0])

	h := 1.0 / float64(steps)
	sum := 0.0
	for i := e.Rank(); i < steps; i += e.Size() {
		x := h * (float64(i) + 0.5)
		sum += 4.0 / (1.0 + x*x)
	}
	part := []float64{sum * h}
	total := comm.Allreduce(part, twolayer.SumOp)
	return total[0]
}

// An MPI-style program on the collective communicator: switching the
// collective style from Flat to Hierarchical is the whole "MagPIe port", as
// the paper's Section 6 promises ("not a single line of application code
// has to be changed").
func ExampleNewComm_integrator() {
	topo := twolayer.DAS()
	params := twolayer.DefaultParams().WithWAN(30*twolayer.Millisecond, 1e6)

	for _, style := range []twolayer.CollectiveStyle{twolayer.Flat, twolayer.Hierarchical} {
		var pi float64
		res, err := twolayer.RunWith(topo, twolayer.RunOptions{Params: params},
			func(e *twolayer.Env) {
				comm := twolayer.NewComm(e, style)
				// Model the integrand cost so the run has a compute phase.
				e.ComputeUnits(piIntervals/int64(e.Size()), 40*twolayer.Nanosecond)
				v := computePi(comm, e)
				if e.Rank() == 0 {
					pi = v
				}
			})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-12v pi = %.9f (err %.1e), elapsed %v\n",
			style, pi, math.Abs(pi-math.Pi), res.Elapsed)
	}
	fmt.Println("\nSame program, same answers — the hierarchical collectives just spend")
	fmt.Println("fewer wide-area round trips, exactly the MagPIe pitch.")
	// Output:
	// flat         pi = 3.141592654 (err 7.7e-14), elapsed 182.395ms
	// hierarchical pi = 3.141592654 (err 7.7e-14), elapsed 92.010ms
	//
	// Same program, same answers — the hierarchical collectives just spend
	// fewer wide-area round trips, exactly the MagPIe pitch.
}

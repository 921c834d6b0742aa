// Command sweep runs a single experiment on the simulated two-layer system
// and reports its runtime, relative speedup and traffic — the basic unit of
// the paper's measurements, exposed for ad-hoc exploration.
//
// Example:
//
//	sweep -app Water -optimized -latency 30ms -bandwidth 0.3 -clusters 4 -percluster 8
//
// The run can be supervised: -deadline bounds it in wall-clock time,
// -max-events / -max-vtime in simulation effort, and -progress-window arms
// the livelock watchdog. A supervised kill prints the structured
// diagnostic report (per-process block reasons, mailbox depths,
// reliable-channel state) and exits 3; harness errors exit 1, flag misuse
// exits 2.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"twolayer/internal/apps"
	"twolayer/internal/cliutil"
	"twolayer/internal/core"
	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		appName    = flag.String("app", "Water", "application: Water, Barnes-Hut, TSP, ASP, Awari or FFT")
		optimized  = flag.Bool("optimized", false, "use the cluster-aware variant")
		latency    = flag.Duration("latency", 500*time.Microsecond, "one-way wide-area latency")
		bandwidth  = flag.Float64("bandwidth", 6.0, "wide-area bandwidth in MByte/s")
		clusters   = flag.Int("clusters", 4, "number of clusters")
		perCluster = flag.Int("percluster", 8, "processors per cluster")
		scaleF     = flag.String("scale", "paper", "problem scale: tiny, small or paper")
		verify     = flag.Bool("verify", true, "check the computed result against the sequential reference")
		traceRun   = flag.Bool("trace", false, "print the communication summary, matrix, utilization, wide-area timeline and busiest pairs")
		tcp        = flag.Float64("tcp", 0, "TCP-like per-message link occupancy as a fraction of the RTT")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	adaptive := flag.Bool("adaptive", false, "let the runtime adapt to the -regime (transport tuning, collective switching, churn-aware stealing)")
	sup := cliutil.RegisterSupervision()
	analytic := cliutil.RegisterAnalytic()
	wanSpec := cliutil.RegisterWANTopology()
	regimeFl := cliutil.RegisterRegime()
	flag.Parse()
	if err := analytic.Validate(); err != nil {
		return usage(err)
	}
	// -verify is on by default; asked for by name, it cannot be honoured
	// by an analytic answer, which simulates only the reference recording.
	if analytic.Enabled && *verify && flagSet("verify") {
		return usage(fmt.Errorf("-verify checks a simulated run's output; -analytic simulates none at the asked point (use -verify=false)"))
	}
	rp, err := regimeFl.Params()
	if err != nil {
		return usage(err)
	}
	if err := cliutil.CheckWANSpeed(*latency, *bandwidth); err != nil {
		return usage(err)
	}
	// A negative surcharge would free a link before its transmission ends.
	if !(*tcp >= 0) || math.IsInf(*tcp, 1) {
		return usage(fmt.Errorf("-tcp must be a finite non-negative fraction of the RTT (got %g)", *tcp))
	}
	scale, err := cliutil.Scale(*scaleF)
	if err != nil {
		return usage(err)
	}
	app, err := core.AppByName(*appName)
	if err != nil {
		return usage(err)
	}
	topo, err := cliutil.Machine(*clusters, *perCluster)
	if err != nil {
		return usage(err)
	}
	wan, err := cliutil.ParseWANTopology(*wanSpec, *clusters)
	if err != nil {
		return usage(err)
	}
	pol, cleanup, err := sup.Policy()
	if err != nil {
		return usage(err)
	}
	defer cleanup()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				code = fail(err)
				return
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				code = fail(err)
			}
		}()
	}

	params := network.DefaultParams().WithWAN(sim.Time((*latency).Nanoseconds()), *bandwidth*1e6)
	params.WANMessageRTTFactor = *tcp

	x := core.Experiment{
		App: app, Scale: scale, Optimized: *optimized,
		Topo: topo, Params: params, WAN: wan, Verify: *verify,
		Regime: rp, Adaptive: *adaptive,
	}
	// -trace folds the run's events in O(procs) memory.
	var tr *trace.Stream
	if *traceRun {
		tr = trace.NewStream(topo.Procs())
		x.Trace = tr
	}
	cache := sup.Cache("sweep")
	// A flag combination the capability table refuses fails before any
	// work, and fail maps its *par.Unsupported to exit 2.
	if analytic.Enabled {
		return runAnalytic(x, scale, *bandwidth, pol, cache, *analytic.Options())
	}
	label := fmt.Sprintf("%s (optimized=%v) on %s", app.Name, *optimized, topo)
	res, failed, err := core.SupervisedRun(pol, label, x, cache)
	if err != nil {
		return fail(err)
	}
	if failed != nil {
		return cliutil.ReportOutcome(os.Stderr, "sweep", pol)
	}

	base := core.NewBaselines(scale)
	tl, err := base.SingleCluster(app, topo.Procs())
	if err != nil {
		return fail(err)
	}

	latGap, bwGap := params.Gap()
	fmt.Printf("application:        %s (optimized=%v, scale=%s)\n", app.Name, *optimized, scale)
	fmt.Printf("machine:            %s, WAN %v one-way / %.3g MByte/s (gap: %.0fx latency, %.0fx bandwidth)\n",
		topo, params.WANLatency, *bandwidth, latGap, bwGap)
	if !wan.IsClique() {
		fmt.Printf("wide-area graph:    %s (diameter %d, mean path %.2f hops, %d bisection links)\n",
			wan.Spec(), wan.Diameter(), wan.MeanPathLength(), wan.BisectionLinks())
	}
	if rp.Enabled() {
		fmt.Printf("regime:             %s (seed %d, adaptive=%v)\n", rp.Spec, rp.Seed, *adaptive)
	}
	fmt.Printf("runtime:            %v (single cluster: %v)\n", res.Elapsed, tl)
	fmt.Printf("relative speedup:   %.1f%% of the all-fast-network run\n", core.RelativeSpeedup(tl, res.Elapsed))
	fmt.Printf("comm time share:    %.1f%%\n", core.CommTimePercent(tl, res.Elapsed))
	fmt.Printf("wide-area traffic:  %d messages, %.3f MByte (%.3f MByte/s aggregate)\n",
		res.WAN.Messages, float64(res.WAN.Bytes)/1e6, float64(res.WAN.Bytes)/1e6/res.Elapsed.Seconds())
	for c, s := range res.ClusterWANOut {
		fmt.Printf("  cluster %d out:    %d msgs, %.3f MByte/s\n",
			c, s.Messages, float64(s.Bytes)/1e6/res.Elapsed.Seconds())
	}
	fmt.Printf("simulator effort:   %d events\n", res.Events)
	cliutil.ReportCache(os.Stderr, cache)
	if *verify {
		fmt.Println("verification:       output matches the sequential reference")
	}
	if tr != nil {
		s := tr.Summarize()
		fmt.Printf("\ntrace: %d messages (%d wide-area), mean transit %v (WAN %v), max %v\n",
			s.Messages, s.WANMessages, s.MeanTransit, s.MeanWANTransit, s.MaxTransit)
		fmt.Println()
		fmt.Print(tr.RenderCommMatrix())
		fmt.Println()
		fmt.Print(tr.RenderUtilization(res.Elapsed))
		fmt.Println()
		fmt.Print(tr.Timeline(res.Elapsed, 24))
		fmt.Println("\nbusiest pairs:")
		for _, p := range tr.TopPairs(5) {
			fmt.Printf("  %3d -> %3d: %d bytes\n", p.Src, p.Dst, p.Bytes)
		}
	}
	return cliutil.ExitOK
}

// runAnalytic answers the asked point from the variant's recorded reference
// graph: one simulated run at the reference network point (shared across
// reruns through the graph cache), then an analytic solve plus the
// latency/bandwidth decomposition at the asked point.
func runAnalytic(x core.Experiment, scale apps.Scale, bandwidthMB float64, pol *core.RunPolicy, cache *core.RunCache, a core.AnalyticOptions) int {
	label := fmt.Sprintf("%s (optimized=%v) on %s analytic reference", x.App.Name, x.Optimized, x.Topo)
	pt, failed, err := core.SolveAnalytic(label, x, pol, cache, a)
	if err != nil {
		return fail(err)
	}
	if failed != nil {
		return cliutil.ReportOutcome(os.Stderr, "sweep", pol)
	}
	base := core.NewBaselines(scale)
	tl, err := base.SingleCluster(x.App, x.Topo.Procs())
	if err != nil {
		return fail(err)
	}
	latGap, bwGap := x.Params.Gap()
	fmt.Printf("application:        %s (optimized=%v, scale=%s)\n", x.App.Name, x.Optimized, scale)
	fmt.Printf("machine:            %s, WAN %v one-way / %.3g MByte/s (gap: %.0fx latency, %.0fx bandwidth)\n",
		x.Topo, x.Params.WANLatency, bandwidthMB, latGap, bwGap)
	fmt.Printf("mode:               analytic/%s (graph: %d nodes, %d messages; recorded at %v / %.3g MByte/s; ref error %.2f%%)\n",
		pt.Report.Engine, pt.Report.Nodes, pt.Report.Messages,
		core.ReferenceWANLatency, core.ReferenceWANBandwidth/1e6, pt.Report.RefErrorPct)
	fmt.Printf("predicted runtime:  %v (single cluster: %v)\n", pt.Elapsed, tl)
	fmt.Printf("relative speedup:   %.1f%% of the all-fast-network run\n", core.RelativeSpeedup(tl, pt.Elapsed))
	fmt.Printf("comm time share:    %.1f%%\n", core.CommTimePercent(tl, pt.Elapsed))
	fmt.Printf("latency share:      %.1f%% of the predicted runtime is bought back by a zero-latency WAN\n", pt.LatencySharePct)
	fmt.Printf("bandwidth share:    %.1f%% by an infinite-bandwidth WAN\n", pt.BandwidthSharePct)
	cliutil.ReportCache(os.Stderr, cache)
	return cliutil.ExitOK
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func usage(err error) int {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	return cliutil.ExitUsage
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	return cliutil.ExitFor(err)
}

// Command figures regenerates the paper's tables and figures on the
// simulated two-layer testbed.
//
// Usage:
//
//	figures -table1            # Table 1: single-cluster application behaviour
//	figures -table2            # Table 2: communication patterns and optimizations
//	figures -fig1              # Figure 1: inter-cluster volume vs messages
//	figures -fig3              # Figure 3: the twelve speedup panels (slow!)
//	figures -fig4              # Figure 4: communication-time percentages
//	figures -gaps              # Section 5.1: acceptable-gap analysis
//	figures -shapes            # Section 5.1: cluster-structure comparison
//	figures -variability       # the paper's future work: fluctuating links
//	figures -topology          # Section 5.1 re-asked on generated wide-area
//	                           # graphs (clique vs torus vs circulant)
//	figures -heatmap           # dense analytic sensitivity heatmap (CSV)
//	figures -regimes           # dynamic-regime robustness study: calm vs
//	                           # static vs adaptive runtimes (-csv for CSV)
//	figures -all               # everything (except -topology, -heatmap and
//	                           # -regimes)
//
// Options: -scale tiny|small|paper (default paper), -apps Water,FFT,...,
// -csv for machine-readable Figure 3 output.
//
// With -analytic, Figure 3, Figure 4, -gaps and -shapes are answered from
// one recorded dependency graph per variant (simulated once at the
// reference point, solved analytically everywhere else; see DESIGN.md
// section 5h). -analytic-tolerance bounds the replay's self-check error.
//
// Long sweeps can be supervised: -deadline, -max-events, -max-vtime and
// -progress-window bound each run, and cells that have to be killed render
// as FAILED(reason) instead of aborting the sweep. A -journal file records
// completed cells so an interrupted sweep continues with -resume, with
// byte-identical output.
//
// Exit codes: 0 all cells completed, 1 harness error, 2 flag misuse,
// 3 sweep completed with FAILED cells.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"runtime/pprof"

	"twolayer/internal/apps"
	"twolayer/internal/cliutil"
	"twolayer/internal/core"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		table1   = flag.Bool("table1", false, "regenerate Table 1")
		table2   = flag.Bool("table2", false, "regenerate Table 2")
		fig1     = flag.Bool("fig1", false, "regenerate Figure 1")
		fig3     = flag.Bool("fig3", false, "regenerate Figure 3 (full sweep)")
		fig4     = flag.Bool("fig4", false, "regenerate Figure 4")
		gaps     = flag.Bool("gaps", false, "acceptable-gap analysis (Section 5.1)")
		shapes   = flag.Bool("shapes", false, "cluster-structure study (Section 5.1)")
		varia    = flag.Bool("variability", false, "wide-area fluctuation study (the paper's future work)")
		all      = flag.Bool("all", false, "regenerate everything (except -topology, which sets its own scale)")
		topoF    = flag.Bool("topology", false, "wide-area topology study: the cluster-structure question at scale on generated graphs")
		topoCl   = flag.String("topology-clusters", "", "comma-separated cluster counts for -topology (default 16,32,64)")
		topoSp   = flag.String("topology-specs", "", "comma-separated wide-area graph specs for -topology (default clique,torus2,circulant)")
		topoPr   = flag.Int("topology-procs", 0, "total processors for -topology (default 128; every cluster count must divide it)")
		regimesF = flag.Bool("regimes", false, "dynamic-regime robustness study: calm vs static vs adaptive runtimes under time-varying wide-area conditions")
		heatmap  = flag.Bool("heatmap", false, "dense per-variant sensitivity heatmap on log-spaced axes (analytic, CSV to stdout)")
		heatSize = flag.Int("heatmap-size", core.DefaultHeatmapSize, "heatmap cells per axis")
		scaleF   = flag.String("scale", "paper", "problem scale: tiny, small or paper")
		appsF    = flag.String("apps", "", "comma-separated application filter (Figure 3)")
		csv      = flag.Bool("csv", false, "emit Figure 3 / -topology output as CSV")
		cacheDir = flag.String("cache-dir", "results/cache", "persistent run-cache directory")
		noCache  = flag.Bool("no-cache", false, "disable the persistent run cache")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (cells carry pprof labels; see -tagfocus)")
	)
	sup := cliutil.RegisterSupervision("")
	workers := cliutil.RegisterWorkers()
	analytic := cliutil.RegisterAnalytic()
	wanSpec := cliutil.RegisterWANTopology()
	regimeFl := cliutil.RegisterRegime()
	flag.Parse()
	if err := cliutil.ApplyWorkers(*workers); err != nil {
		return usage(err)
	}
	if err := analytic.Validate(); err != nil {
		return usage(err)
	}
	scale, err := parseScale(*scaleF)
	if err != nil {
		return usage(err)
	}
	rp, err := regimeFl.Params()
	if err != nil {
		return usage(err)
	}
	if rp.Enabled() && !*regimesF {
		return usage(fmt.Errorf("-regime selects the scenario for the -regimes study; pass -regimes"))
	}
	pol, cleanup, err := sup.Policy()
	if err != nil {
		return usage(err)
	}
	defer cleanup()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if !*noCache {
		if err := core.DefaultCache.SetDir(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "figures: run cache disabled: %v\n", err)
		}
	}
	var filter []string
	if *appsF != "" {
		filter = strings.Split(*appsF, ",")
		for i, name := range filter {
			filter[i] = strings.TrimSpace(name)
			if *regimesF {
				// The regimes study accepts one extra workload (Collectives)
				// beyond the paper suite.
				if _, err := core.RegimeAppByName(filter[i]); err != nil {
					return usage(err)
				}
				continue
			}
			if _, err := core.AppByName(filter[i]); err != nil {
				return usage(err)
			}
		}
	}
	ran := false

	if *table1 || *all {
		ran = true
		rows, err := core.Table1(scale)
		if err != nil {
			return fail(err)
		}
		fmt.Println("Table 1: Single-Cluster Speedup and Traffic")
		fmt.Println(core.RenderTable1(rows))
	}
	if *table2 || *all {
		ran = true
		fmt.Println("Table 2: Communication Patterns and Optimizations")
		fmt.Println(core.RenderTable2())
	}
	if *fig1 || *all {
		ran = true
		points, err := core.Figure1(scale)
		if err != nil {
			return fail(err)
		}
		fmt.Println("Figure 1: Inter-cluster traffic, 4 clusters, 32 processors")
		fmt.Println("(link: latency 0.5 ms, bandwidth 6.0 MByte/s; unoptimized programs)")
		fmt.Println(core.RenderFigure1(points))
	}
	var panels []core.Figure3Panel
	var reports []core.AnalyticReport
	if *fig3 || *gaps || *all {
		// -wan-topology needs the cluster count, fixed at the DAS's 4 for
		// Figure 3.
		wan, err := cliutil.ParseWANTopology(*wanSpec, 4)
		if err != nil {
			return usage(err)
		}
		if analytic.Enabled && !wan.IsClique() {
			return usage(fmt.Errorf("-analytic supports only the default clique -wan-topology"))
		}
		opts := core.Figure3Options{Apps: filter, WAN: wan, Policy: pol}
		if analytic.Enabled {
			panels, reports, err = core.Figure3Analytic(scale, opts, analytic.Options())
		} else {
			panels, err = core.Figure3(scale, opts)
		}
		if err != nil {
			return fail(err)
		}
	}
	if *fig3 || *all {
		ran = true
		if analytic.Enabled {
			fmt.Println("Figure 3 (analytic): Speedup relative to an all-Myrinet cluster (percent)")
		} else {
			fmt.Println("Figure 3: Speedup relative to an all-Myrinet cluster (percent)")
		}
		for _, p := range panels {
			if *csv {
				renderCSV(p)
			} else {
				fmt.Println(core.RenderFigure3Panel(p))
			}
		}
		if analytic.Enabled && !*csv {
			fmt.Println("Analytic recording health and sensitivity (per variant):")
			fmt.Println(core.RenderAnalyticReports(reports))
		}
	}
	if *fig4 || *all {
		ran = true
		var bw, lat []core.Figure4Curve
		if analytic.Enabled {
			bw, err = core.Figure4AnalyticBandwidth(scale, pol, analytic.Options())
		} else {
			bw, err = core.Figure4Bandwidth(scale, pol)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Println("Figure 4 (left): inter-cluster communication time vs bandwidth at 3.3 ms")
		fmt.Println(core.RenderFigure4(bw, "bandwidth B/s"))
		if analytic.Enabled {
			lat, err = core.Figure4AnalyticLatency(scale, pol, analytic.Options())
		} else {
			lat, err = core.Figure4Latency(scale, pol)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Println("Figure 4 (right): inter-cluster communication time vs latency at 0.9 MByte/s")
		fmt.Println(core.RenderFigure4(lat, "latency ms"))
	}
	if *gaps || *all {
		ran = true
		for _, threshold := range []float64{60, 40} {
			fmt.Printf("Acceptable NUMA gap at the %.0f%% criterion:\n", threshold)
			fmt.Println(core.RenderGaps(core.GapAnalysis(panels, threshold), threshold))
		}
	}
	if *shapes || *all {
		ran = true
		var results []core.ShapeResult
		if analytic.Enabled {
			results, err = core.ClusterShapeStudyAnalytic(scale, []string{"Water", "ASP"},
				3300*sim.Microsecond, 0.95e6, pol, analytic.Options())
		} else {
			results, err = core.ClusterShapeStudy(scale, []string{"Water", "ASP"},
				3300*sim.Microsecond, 0.95e6, pol)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Println("Cluster-structure study (32 processors, 3.3 ms, 0.95 MByte/s):")
		fmt.Println(core.RenderShapes(results))
	}
	if *varia || *all {
		ran = true
		vcfg := core.RegimeStudyConfig{
			Scale:        scale,
			Apps:         filter,
			Regimes:      []regime.Params{{Spec: "vary:20ms:0.5:100ms", Seed: core.DefaultSeed}},
			WANLatency:   10 * sim.Millisecond,
			WANBandwidth: 1e6,
			Cache:        core.DefaultCache,
			Policy:       pol,
		}
		if vcfg.Apps == nil {
			for _, a := range core.Apps() {
				vcfg.Apps = append(vcfg.Apps, a.Name)
			}
		}
		points, err := core.RegimeStudy(vcfg)
		if err != nil {
			return fail(err)
		}
		fmt.Println("Wide-area variability study (4x8 machine, 10 ms / 1 MByte/s calm WAN):")
		fmt.Println(core.RenderRegimeStudy(points))
	}
	if *heatmap {
		ran = true
		hPanels, _, err := core.Heatmap(scale, core.HeatmapOptions{
			Size:     *heatSize,
			Apps:     filter,
			Policy:   pol,
			Analytic: analytic.Options(),
		})
		if err != nil {
			return fail(err)
		}
		core.WriteHeatmapCSV(os.Stdout, hPanels)
	}
	if *topoF {
		ran = true
		if analytic.Enabled {
			return usage(fmt.Errorf("-analytic supports only the default clique wide-area graph; -topology sweeps generated ones"))
		}
		tcfg := core.TopologyStudyConfig{
			Scale:  scale,
			Procs:  *topoPr,
			Cache:  core.DefaultCache,
			Policy: pol,
		}
		if *topoCl != "" {
			for _, part := range strings.Split(*topoCl, ",") {
				c, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return usage(fmt.Errorf("-topology-clusters: bad count %q: %v", part, err))
				}
				tcfg.Clusters = append(tcfg.Clusters, c)
			}
		}
		if *topoSp != "" {
			for _, part := range strings.Split(*topoSp, ",") {
				tcfg.Topologies = append(tcfg.Topologies, strings.TrimSpace(part))
			}
		}
		if filter != nil {
			tcfg.Apps = filter
		}
		points, err := core.TopologyStudy(tcfg)
		if err != nil {
			return fail(err)
		}
		if *csv {
			core.WriteTopologyCSV(os.Stdout, points)
		} else {
			fmt.Println("Wide-area topology study (fixed processor total, 3.3 ms / 0.95 MByte/s WAN):")
			fmt.Println(core.RenderTopologyStudy(points))
		}
	}
	if *regimesF {
		ran = true
		if analytic.Enabled {
			return usage(fmt.Errorf("-analytic needs stationary network conditions; it cannot model -regimes"))
		}
		rcfg := core.RegimeStudyConfig{
			Scale:  scale,
			Cache:  core.DefaultCache,
			Policy: pol,
		}
		if rp.Enabled() {
			rcfg.Regimes = []regime.Params{rp}
		}
		if filter != nil {
			rcfg.Apps = filter
		}
		points, err := core.RegimeStudy(rcfg)
		if err != nil {
			return fail(err)
		}
		if *csv {
			core.WriteRegimeCSV(os.Stdout, points)
		} else {
			fmt.Println("Dynamic-regime robustness study (4x8 machine, 3.3 ms / 0.95 MByte/s calm WAN):")
			fmt.Println(core.RenderRegimeStudy(points))
		}
	}
	if !ran {
		flag.Usage()
		return cliutil.ExitUsage
	}
	if s := core.DefaultCache.CacheStats(); s.Hits+s.DiskHits+s.Misses > 0 {
		line := fmt.Sprintf("run cache: %d memory hits, %d disk hits, %d simulated, %d stale",
			s.Hits, s.DiskHits, s.Misses, s.Stale)
		if s.GraphHits+s.GraphDiskHits+s.GraphMisses > 0 {
			line += fmt.Sprintf("; graphs: %d memory hits, %d disk hits, %d recorded",
				s.GraphHits, s.GraphDiskHits, s.GraphMisses)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	return cliutil.ReportOutcome(os.Stderr, "figures", pol)
}

func renderCSV(p core.Figure3Panel) {
	t := stats.NewTable("app", "variant", "latency_ms", "bandwidth_MBs", "relative_speedup_pct")
	variant := "unoptimized"
	if p.Optimized {
		variant = "optimized"
	}
	for i, lat := range p.Latencies {
		for j, bw := range p.Bandwidths {
			value := fmt.Sprintf("%.2f", p.Rel[i][j])
			if k := p.FailedAt(i, j); k != "" {
				value = core.FailedCell(k)
			}
			t.AddRow(p.App, variant,
				fmt.Sprintf("%.4g", lat.Milliseconds()),
				fmt.Sprintf("%.4g", bw/1e6),
				value)
		}
	}
	t.CSV(os.Stdout)
}

func parseScale(s string) (apps.Scale, error) {
	switch s {
	case "tiny":
		return apps.Tiny, nil
	case "small":
		return apps.Small, nil
	case "paper":
		return apps.Paper, nil
	}
	return 0, fmt.Errorf("unknown scale %q", s)
}

func usage(err error) int {
	fmt.Fprintln(os.Stderr, "figures:", err)
	return cliutil.ExitUsage
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "figures:", err)
	return cliutil.ExitHarness
}

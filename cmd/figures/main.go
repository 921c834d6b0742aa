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
// Every selected study is checked against the capability table (DESIGN.md
// section 5l) before the first prints, and -wan-topology reaches only
// Figure 3 and -gaps; a refusal exits 2.
//
// Long sweeps can be supervised: -deadline, -max-events, -max-vtime and
// -progress-window bound each run, and cells that have to be killed render
// as FAILED(reason) instead of aborting the sweep. Finished cells persist
// in the run cache (-cache-dir), so rerunning an interrupted command
// resumes it with byte-identical output; -no-cache persists nothing.
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

	"twolayer/internal/cliutil"
	"twolayer/internal/core"
	"twolayer/internal/par"
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
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (cells carry pprof labels; see -tagfocus)")
	)
	sup := cliutil.RegisterSupervision()
	analytic := cliutil.RegisterAnalytic()
	wanSpec := cliutil.RegisterWANTopology()
	regimeFl := cliutil.RegisterRegime()
	flag.Parse()
	if err := analytic.Validate(); err != nil {
		return usage(err)
	}
	scale, err := cliutil.Scale(*scaleF)
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
	// Check every selected study before the first prints: the capability
	// table decides what its runs ask for (recordings, when it is answered
	// analytically: it has an analytic form or is named beside -analytic),
	// and a non-clique -wan-topology reaches only -fig3 and -gaps.
	wan, err := cliutil.ParseWANTopology(*wanSpec, 4) // Figure 3's DAS
	if err != nil {
		return usage(err)
	}
	wanF := par.FeaturesOf(par.Options{WAN: wan})
	ran := false
	for _, st := range []struct {
		flag                      string
		named, inAll, form, reads bool
		f                         par.Feature
	}{
		{"-table1", *table1, true, false, false, 0},
		{"-table2", *table2, true, false, false, 0},
		{"-fig1", *fig1, true, false, false, 0},
		{"-fig3", *fig3, true, true, true, wanF},
		{"-fig4", *fig4, true, true, false, 0},
		{"-gaps", *gaps, true, true, true, wanF},
		{"-shapes", *shapes, true, true, false, 0},
		{"-variability", *varia, true, false, false, par.Regime},
		{"-heatmap", *heatmap, false, true, false, par.Record},
		{"-topology", *topoF, false, false, false, par.NonClique},
		{"-regimes", *regimesF, false, false, false, par.Regime | par.Adaptive},
	} {
		if !st.named && !(st.inAll && *all) {
			continue
		}
		ran = true
		if !wan.IsClique() && !st.reads {
			return usage(fmt.Errorf("-wan-topology %s: %s does not read it", wan.Spec(), st.flag))
		}
		if analytic.Enabled && (st.form || st.named) {
			st.f |= par.Record
		}
		if err := par.Check(st.f); err != nil {
			return usage(fmt.Errorf("%s: %w", st.flag, err))
		}
	}
	if !ran {
		flag.Usage()
		return cliutil.ExitUsage
	}
	if *heatmap && *heatSize < 2 {
		return usage(fmt.Errorf("-heatmap-size %d: the lattice needs at least 2 cells per axis", *heatSize))
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
	cache := sup.Cache("figures")
	var filter []string
	if *appsF != "" {
		filter = strings.Split(*appsF, ",")
		seen := make(map[string]bool, len(filter))
		for i, name := range filter {
			filter[i] = strings.TrimSpace(name)
			if seen[filter[i]] {
				// Every study would print the application's rows twice.
				return usage(fmt.Errorf("-apps: %q repeated", filter[i]))
			}
			seen[filter[i]] = true
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
	tcfg := core.TopologyStudyConfig{Scale: scale, Procs: *topoPr, Apps: filter, Cache: cache, Policy: pol}
	if *topoF {
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
		if err := tcfg.Validate(); err != nil {
			return usage(fmt.Errorf("-topology: %w", err))
		}
	}
	if *table1 || *all {
		rows, err := core.Table1(scale)
		if err != nil {
			return fail(err)
		}
		fmt.Println("Table 1: Single-Cluster Speedup and Traffic")
		fmt.Println(core.RenderTable1(rows))
	}
	if *table2 || *all {
		fmt.Println("Table 2: Communication Patterns and Optimizations")
		fmt.Println(core.RenderTable2())
	}
	if *fig1 || *all {
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
		opts := core.Figure3Options{Apps: filter, WAN: wan, Policy: pol}
		panels, reports, err = core.Figure3With(scale, opts, analytic.Options())
		if err != nil {
			return fail(err)
		}
	}
	if *fig3 || *all {
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
		bw, err := core.Figure4Bandwidth(scale, pol, analytic.Options())
		if err != nil {
			return fail(err)
		}
		fmt.Println("Figure 4 (left): inter-cluster communication time vs bandwidth at 3.3 ms")
		fmt.Println(core.RenderFigure4(bw, "bandwidth B/s"))
		lat, err := core.Figure4Latency(scale, pol, analytic.Options())
		if err != nil {
			return fail(err)
		}
		fmt.Println("Figure 4 (right): inter-cluster communication time vs latency at 0.9 MByte/s")
		fmt.Println(core.RenderFigure4(lat, "latency ms"))
	}
	if *gaps || *all {
		for _, threshold := range []float64{60, 40} {
			fmt.Printf("Acceptable NUMA gap at the %.0f%% criterion:\n", threshold)
			fmt.Println(core.RenderGaps(core.GapAnalysis(panels, threshold), threshold))
		}
	}
	if *shapes || *all {
		results, err := core.ClusterShapeStudy(scale, []string{"Water", "ASP"},
			3300*sim.Microsecond, 0.95e6, pol, analytic.Options())
		if err != nil {
			return fail(err)
		}
		fmt.Println("Cluster-structure study (32 processors, 3.3 ms, 0.95 MByte/s):")
		fmt.Println(core.RenderShapes(results))
	}
	if *varia || *all {
		vcfg := core.RegimeStudyConfig{
			Scale:        scale,
			Apps:         filter,
			Regimes:      []regime.Params{{Spec: "vary:20ms:0.5:100ms", Seed: core.DefaultSeed}},
			WANLatency:   10 * sim.Millisecond,
			WANBandwidth: 1e6,
			Cache:        cache,
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
		hPanels, _, err := core.Heatmap(scale, core.HeatmapOptions{
			Size:     *heatSize,
			Apps:     filter,
			Policy:   pol,
			Analytic: core.AnalyticOptions{Tolerance: analytic.Tolerance},
		})
		if err != nil {
			return fail(err)
		}
		core.WriteHeatmapCSV(os.Stdout, hPanels)
	}
	if *topoF {
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
		rcfg := core.RegimeStudyConfig{
			Scale:  scale,
			Cache:  cache,
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
	cliutil.ReportCache(os.Stderr, cache)
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

func usage(err error) int {
	fmt.Fprintln(os.Stderr, "figures:", err)
	return cliutil.ExitUsage
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "figures:", err)
	return cliutil.ExitFor(err)
}

// Command chaos runs the fault-injection sensitivity sweep: every
// application variant under deterministic wide-area message loss and
// transient link outages, healed by the go-back-N reliable transport. It
// writes the full grid to a CSV file and prints the headline table — the
// injected loss rate and outage duration at which each application falls
// below the paper's 60%-of-uniform acceptability criterion.
//
// Example:
//
//	chaos                          # paper scale, default fault grid
//	chaos -scale small -drops 0,0.01,0.1 -outages 0,100ms
//	chaos -o results/chaos.csv
//	chaos -drops 1 -deadline 10s   # hostile WAN, bounded by supervision
//
// Two runs with the same flags and seed produce byte-identical CSV files.
// Every finished cell persists in the run cache (-cache-dir) the moment it
// completes, so rerunning an interrupted sweep's command resumes it, with
// the same bytes; -no-cache persists and resumes nothing. Supervised runs
// (-deadline, -max-events, -progress-window) record cells that had to be
// killed as explicit FAILED(reason) rows instead of aborting the sweep.
//
// Exit codes: 0 all cells completed, 1 harness error, 2 flag misuse,
// 3 sweep completed with FAILED cells.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"twolayer/internal/cliutil"
	"twolayer/internal/core"
	"twolayer/internal/network"
	"twolayer/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		scaleF     = flag.String("scale", "paper", "problem scale: tiny, small or paper")
		dropsF     = flag.String("drops", "", "comma-separated wide-area loss rates in [0,1], e.g. 0,0.01,1 (default the built-in grid; 1 = totally hostile WAN)")
		outagesF   = flag.String("outages", "", "comma-separated outage durations, e.g. 0,100ms,300ms (default the built-in grid)")
		period     = flag.Duration("period", time.Second, "outage repetition period")
		latency    = flag.Duration("latency", 500*time.Microsecond, "one-way wide-area latency")
		bandwidth  = flag.Float64("bandwidth", 6.0, "wide-area bandwidth in MByte/s")
		clusters   = flag.Int("clusters", 4, "number of clusters")
		perCluster = flag.Int("percluster", 8, "processors per cluster")
		seed       = flag.Int64("seed", core.DefaultSeed, "fault-plan seed (non-negative)")
		out        = flag.String("o", "results/chaos.csv", "CSV output path")
	)
	sup := cliutil.RegisterSupervision()
	wanSpec := cliutil.RegisterWANTopology()
	regimeFl := cliutil.RegisterRegime()
	flag.Parse()
	rp, err := regimeFl.Params()
	if err != nil {
		return usage(err)
	}

	scale, err := cliutil.Scale(*scaleF)
	if err != nil {
		return usage(err)
	}
	if err := cliutil.CheckWANSpeed(*latency, *bandwidth); err != nil {
		return usage(err)
	}
	if *seed < 0 {
		return usage(fmt.Errorf("-seed must be non-negative (got %d)", *seed))
	}
	drops, err := parseDrops(*dropsF)
	if err != nil {
		return usage(err)
	}
	if drops == nil {
		drops = core.DefaultChaosDrops
	}
	outages, err := parseOutages(*outagesF, sim.Time((*period).Nanoseconds()))
	if err != nil {
		return usage(err)
	}
	if outages == nil {
		outages = core.DefaultChaosOutages
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
	cache := sup.Cache("chaos")

	cfg := core.ChaosConfig{
		Scale:        scale,
		Topo:         topo,
		Params:       network.DefaultParams().WithWAN(sim.Time((*latency).Nanoseconds()), *bandwidth*1e6),
		WAN:          wan,
		Drops:        drops,
		Outages:      outages,
		OutagePeriod: sim.Time((*period).Nanoseconds()),
		Seed:         *seed,
		Regime:       rp,
		Cache:        cache,
		Policy:       pol,
	}
	points, err := core.ChaosStudy(cfg)
	if err != nil {
		return fail(err)
	}

	if err := cliutil.WriteFileAtomic(*out, func(w io.Writer) error {
		core.WriteChaosCSV(w, points)
		return nil
	}); err != nil {
		return fail(err)
	}

	fmt.Printf("chaos sensitivity at %s scale, %s, WAN %v / %.3g MByte/s, fault seed %d\n",
		scale, topo, cfg.Params.WANLatency, *bandwidth, *seed)
	if !wan.IsClique() {
		fmt.Printf("wide-area graph: %s (diameter %d, mean path %.2f hops)\n",
			wan.Spec(), wan.Diameter(), wan.MeanPathLength())
	}
	if rp.Enabled() {
		fmt.Printf("regime overlay: %s (seed %d)\n", rp.Spec, rp.Seed)
	}
	fmt.Printf("grid: loss rates %v, outage durations %v per %v period (%d runs)\n\n",
		drops, outages, *period, len(points))
	fmt.Print(core.RenderChaosSummary(points))
	fmt.Printf("\nfull grid written to %s\n", *out)
	cliutil.ReportCache(os.Stderr, cache)
	return cliutil.ReportOutcome(os.Stderr, "chaos", pol)
}

// parseDrops parses "-drops 0,0.01,1"; an empty flag keeps the default
// grid, and a rate given twice (compared as a number, so 0 and 0.0 are
// one rate) is refused. Rate 1 (total loss) is legal: it models a WAN so
// hostile that no run completes, which is exactly what the supervision
// flags are for.
func parseDrops(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("-drops: bad rate %q: %v", part, err)
		}
		if !(v >= 0 && v <= 1) { // NaN fails every comparison
			return nil, fmt.Errorf("-drops: rate %g outside [0,1]", v)
		}
		if slices.Contains(out, v) {
			return nil, fmt.Errorf("-drops: rate %g repeated", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseOutages parses "-outages 0,100ms,300ms"; the period must be
// positive, every duration must fit inside it, and no duration may repeat
// (100ms and 0.1s are one duration). An empty flag keeps the default
// grid.
func parseOutages(s string, period sim.Time) ([]sim.Time, error) {
	if period <= 0 {
		return nil, fmt.Errorf("-period must be positive (got %v)", time.Duration(period))
	}
	if s == "" {
		for _, d := range core.DefaultChaosOutages {
			if d >= period {
				return nil, fmt.Errorf("-period %v too short for the default outage grid (max %v)", period, d)
			}
		}
		return nil, nil
	}
	var out []sim.Time
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		d, err := time.ParseDuration(part)
		if err != nil {
			return nil, fmt.Errorf("-outages: bad duration %q: %v", part, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("-outages: negative duration %v", d)
		}
		if sim.Time(d.Nanoseconds()) >= period {
			return nil, fmt.Errorf("-outages: duration %v must be shorter than the %v period", d, period)
		}
		if slices.Contains(out, sim.Time(d.Nanoseconds())) {
			return nil, fmt.Errorf("-outages: duration %v repeated", d)
		}
		out = append(out, sim.Time(d.Nanoseconds()))
	}
	return out, nil
}

func usage(err error) int {
	fmt.Fprintln(os.Stderr, "chaos:", err)
	return cliutil.ExitUsage
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "chaos:", err)
	return cliutil.ExitHarness
}

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
//	chaos -resume                  # continue an interrupted sweep
//
// Two runs with the same flags and seed produce byte-identical CSV files —
// including a run interrupted and continued with -resume. Supervised runs
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
	"strconv"
	"strings"
	"time"

	"twolayer/internal/apps"
	"twolayer/internal/cliutil"
	"twolayer/internal/core"
	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
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
		cacheDir   = flag.String("cache-dir", "results/cache", "persistent run-cache directory")
		noCache    = flag.Bool("no-cache", false, "disable the persistent run cache")
	)
	sup := cliutil.RegisterSupervision("")
	workers := cliutil.RegisterWorkers()
	wanSpec := cliutil.RegisterWANTopology()
	regimeFl := cliutil.RegisterRegime()
	flag.Parse()
	if err := cliutil.ApplyWorkers(*workers); err != nil {
		return usage(err)
	}
	rp, err := regimeFl.Params()
	if err != nil {
		return usage(err)
	}

	scale, ok := map[string]apps.Scale{"tiny": apps.Tiny, "small": apps.Small, "paper": apps.Paper}[*scaleF]
	if !ok {
		return usage(fmt.Errorf("unknown scale %q (want tiny, small or paper)", *scaleF))
	}
	if err := cliutil.CheckWANSpeed(*latency, *bandwidth); err != nil {
		return usage(err)
	}
	if *clusters < 1 {
		return usage(fmt.Errorf("-clusters must be at least 1 (got %d)", *clusters))
	}
	if *perCluster < 1 {
		return usage(fmt.Errorf("-percluster must be at least 1 (got %d)", *perCluster))
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
	topo, err := topology.Uniform(*clusters, *perCluster)
	if err != nil {
		return usage(err)
	}
	wan, err := cliutil.ParseWANTopology(*wanSpec, *clusters)
	if err != nil {
		return usage(err)
	}
	// The resume journal lives next to the CSV unless -journal overrides it:
	// results/chaos.csv is rebuilt from results/chaos.journal.
	if sup.JournalPath == "" && sup.Resume {
		sup.JournalPath = journalFor(*out)
	}
	pol, cleanup, err := sup.Policy()
	if err != nil {
		return usage(err)
	}
	defer cleanup()
	// A supervised-but-unjournaled sweep still writes the journal derived
	// from -o, so a later -resume can pick up where a crash left off.
	if pol != nil && pol.Journal == nil {
		if j, err := core.OpenJournal(journalFor(*out), false); err == nil {
			pol.Journal = j
			defer j.Close()
		}
	}

	cache := core.DefaultCache
	if *noCache {
		cache = nil
	} else if err := cache.SetDir(*cacheDir); err != nil {
		fmt.Fprintf(os.Stderr, "chaos: run cache disabled: %v\n", err)
	}

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
	if cache != nil {
		// Cache effectiveness goes to stderr: stdout stays byte-identical
		// across reruns (the determinism contract).
		s := cache.CacheStats()
		fmt.Fprintf(os.Stderr, "run cache: %d memory hits, %d disk hits, %d simulated, %d stale\n",
			s.Hits, s.DiskHits, s.Misses, s.Stale)
	}
	return cliutil.ReportOutcome(os.Stderr, "chaos", pol)
}

// journalFor derives the sweep-journal path from the CSV output path:
// results/chaos.csv -> results/chaos.journal.
func journalFor(out string) string {
	if i := strings.LastIndex(out, "."); i > strings.LastIndexByte(out, '/') {
		out = out[:i]
	}
	return out + ".journal"
}

// parseDrops parses "-drops 0,0.01,1"; an empty flag keeps the default
// grid. Rate 1 (total loss) is legal: it models a WAN so hostile that no
// run completes, which is exactly what the supervision flags are for.
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
		out = append(out, v)
	}
	return out, nil
}

// parseOutages parses "-outages 0,100ms,300ms"; durations must fit inside
// the outage period. An empty flag keeps the default grid.
func parseOutages(s string, period sim.Time) ([]sim.Time, error) {
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
		if part == "0" {
			out = append(out, 0)
			continue
		}
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

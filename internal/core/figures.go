package core

import (
	"fmt"
	"slices"
	"strconv"

	"twolayer/internal/apps"
	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
	"twolayer/internal/topology"
	"twolayer/internal/wantopo"
)

// Figure3Panel is one of the paper's twelve speedup panels: relative
// speedup (percent of the 32-processor all-Myrinet run) for every
// latency/bandwidth combination, for one application variant.
type Figure3Panel struct {
	App       string
	Optimized bool
	// Latencies and Bandwidths are the axes; Rel[i][j] is the relative
	// speedup at Latencies[i] x Bandwidths[j].
	Latencies  []sim.Time
	Bandwidths []float64
	Rel        [][]float64
	// Failed, when non-nil, marks cells the run policy gave up on:
	// Failed[i][j] is the stable failure kind ("deadline", "livelock", ...)
	// or "" for a healthy cell. It is nil when every cell succeeded, so
	// fully healthy sweeps keep their historical encoding.
	Failed [][]string `json:",omitempty"`
}

// Figure3Options narrows a sweep.
type Figure3Options struct {
	// Apps restricts the applications by name; empty means all six.
	Apps []string
	// Latencies and Bandwidths override the paper's axes; nil means the
	// full grid.
	Latencies  []sim.Time
	Bandwidths []float64
	// Topo overrides the machine; nil means the 4x8 DAS shape.
	Topo *topology.Topology
	// WAN overrides the wide-area graph; nil means the paper's clique.
	WAN *wantopo.WAN
	// Cache memoizes runs; nil means the process-wide DefaultCache. Cells
	// shared with other sweeps (Figure 4's bandwidth curve, Table 1's
	// single-cluster runs) are then simulated only once per process.
	Cache *RunCache
	// Policy supervises the sweep (budgets, deadline, per-cell
	// degradation); nil runs unsupervised.
	Policy *RunPolicy
}

func (opts Figure3Options) withDefaults() Figure3Options {
	if opts.Latencies == nil {
		opts.Latencies = Latencies
	}
	if opts.Bandwidths == nil {
		opts.Bandwidths = Bandwidths
	}
	if opts.Topo == nil {
		opts.Topo = topology.DAS()
	}
	if opts.Cache == nil {
		opts.Cache = DefaultCache
	}
	return opts
}

// variant is one application at one optimization level.
type variant struct {
	app apps.Info
	opt bool
}

// variantsOf lists the golden-run variants — every application unoptimized,
// plus the cluster-aware version where the paper has one — of the named
// applications, or of all six when names is empty.
func variantsOf(names []string) []variant {
	var vs []variant
	for _, a := range Apps() {
		if len(names) > 0 && !nameIn(names, a.Name) {
			continue
		}
		vs = append(vs, variant{a, false})
		if a.HasOptimized {
			vs = append(vs, variant{a, true})
		}
	}
	return vs
}

// Figure3 sweeps the grid and returns one panel per (application, variant)
// pair — twelve panels at full scope, matching the paper's figure (FFT
// contributes a single panel, as in the paper) — simulating every cell.
// Runs execute concurrently; results are deterministic regardless.
func Figure3(scale apps.Scale, opts Figure3Options) ([]Figure3Panel, error) {
	panels, _, err := Figure3With(scale, opts, nil)
	return panels, err
}

// Figure3Analytic is Figure 3 answered from one recorded run per variant,
// with one AnalyticReport per variant beside the panels.
func Figure3Analytic(scale apps.Scale, opts Figure3Options, a AnalyticOptions) ([]Figure3Panel, []AnalyticReport, error) {
	return Figure3With(scale, opts, &a)
}

// Figure3With is Figure 3 with the answerer a chooses (see answer): nil
// simulates every cell; otherwise each variant's grid is answered from
// its recording, a.Tolerance bounding the matched replay's reference
// self-check, and one AnalyticReport per variant comes back beside the
// panels. Baselines are simulated through the cache either way.
func Figure3With(scale apps.Scale, opts Figure3Options, a *AnalyticOptions) ([]Figure3Panel, []AnalyticReport, error) {
	opts = opts.withDefaults()
	lats, bws := opts.Latencies, opts.Bandwidths
	variants := variantsOf(opts.Apps)
	grid := make([]network.Params, 0, len(lats)*len(bws))
	for _, lat := range lats {
		for _, bw := range bws {
			grid = append(grid, network.DefaultParams().WithWAN(lat, bw))
		}
	}
	jobs := make([]analyticJob, len(variants))
	for v, va := range variants {
		jobs[v] = analyticJob{
			label: variantLabel(va.app.Name, va.opt),
			x:     Experiment{App: va.app, Scale: scale, Optimized: va.opt, Topo: opts.Topo, WAN: opts.WAN},
			pts:   grid,
		}
	}
	answers, err := answer(jobs, a, opts.Policy, opts.Cache)
	if answers == nil {
		return nil, nil, err
	}
	panels := make([]Figure3Panel, len(answers))
	var reports []AnalyticReport
	for v, r := range answers {
		p := Figure3Panel{
			App: variants[v].app.Name, Optimized: variants[v].opt,
			Latencies: lats, Bandwidths: bws,
			Rel: make([][]float64, len(lats)),
		}
		// A fully healthy panel has no Failed grid, keeping the historical
		// shape (and JSON encoding) for sweeps that never fail.
		if r.Failed != nil {
			p.Failed = make([][]string, len(lats))
		}
		for i := range lats {
			row := i * len(bws)
			p.Rel[i] = make([]float64, len(bws))
			if p.Failed != nil {
				p.Failed[i] = r.Failed[row : row+len(bws)]
			}
			for j := range bws {
				if p.FailedAt(i, j) == "" {
					p.Rel[i][j] = RelativeSpeedup(r.Baseline, r.Elapsed[row+j])
				}
			}
		}
		panels[v] = p
		if a != nil {
			reports = append(reports, r.Report)
		}
	}
	return panels, reports, err
}

// variantLabel names an application variant, e.g. "TSP (unoptimized)".
func variantLabel(app string, optimized bool) string {
	return app + " (" + variantName(optimized) + ")"
}

// pointLabel names a study cell: its job's label and its point, e.g.
// "TSP (unoptimized) lat=3.300ms bw=0.95MB/s" — fmt's
// "%s lat=%v bw=%gMB/s" bytes, built in one allocation.
func pointLabel(base string, p network.Params) string {
	b := make([]byte, 0, 64)
	b = append(b, base...)
	b = append(b, " lat="...)
	b = p.WANLatency.Append(b)
	b = append(b, " bw="...)
	b = strconv.AppendFloat(b, p.WANBandwidth/1e6, 'g', -1, 64)
	return string(append(b, "MB/s"...))
}

func nameIn(names []string, n string) bool {
	for _, x := range names {
		if x == n {
			return true
		}
	}
	return false
}

// RenderFigure3Panel formats one panel as a latency x bandwidth table of
// relative speedup percentages.
func RenderFigure3Panel(p Figure3Panel) string {
	variant := "unoptimized"
	if p.Optimized {
		variant = "optimized"
	}
	header := []string{fmt.Sprintf("%s (%s) lat\\bw", p.App, variant)}
	for _, bw := range p.Bandwidths {
		header = append(header, fmt.Sprintf("%.2gMB/s", bw/1e6))
	}
	t := stats.NewTable(header...)
	for i, lat := range p.Latencies {
		row := []any{lat.String()}
		for j := range p.Bandwidths {
			if k := p.FailedAt(i, j); k != "" {
				row = append(row, FailedCell(k))
			} else {
				row = append(row, fmt.Sprintf("%.1f%%", p.Rel[i][j]))
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}

// FailedAt returns the failure kind recorded for cell (i, j), "" when the
// cell succeeded (or the panel has no failures at all).
func (p Figure3Panel) FailedAt(i, j int) string {
	if p.Failed == nil {
		return ""
	}
	return p.Failed[i][j]
}

// Figure4Curve is one application's inter-cluster communication-time
// percentage along one axis of the paper's Figure 4.
type Figure4Curve struct {
	App       string
	Optimized bool
	X         []float64 // bandwidth in bytes/s or latency in ms
	CommPct   []float64
	// Failed, when non-nil, parallels X: the failure kind of each point
	// the run policy gave up on, "" for healthy points. Nil when the whole
	// curve succeeded.
	Failed []string `json:",omitempty"`
}

// Figure4Bandwidth reproduces the left-hand graph: communication time
// percentage as a function of wide-area bandwidth at 3.3 ms latency,
// for the best (optimized where available) variant of each application.
// pol supervises the sweep; nil runs unsupervised. a chooses the
// answerer (see answer): nil simulates every point.
func Figure4Bandwidth(scale apps.Scale, pol *RunPolicy, a *AnalyticOptions) ([]Figure4Curve, error) {
	return figure4(scale, true, pol, a)
}

// Figure4Latency reproduces the right-hand graph: communication time
// percentage as a function of wide-area latency at 0.9 MByte/s.
func Figure4Latency(scale apps.Scale, pol *RunPolicy, a *AnalyticOptions) ([]Figure4Curve, error) {
	return figure4(scale, false, pol, a)
}

// figure4Axis returns Figure 4's x values (bandwidths in B/s, or latencies
// in ms) and the network point of each: the swept axis against a fixed
// 3.3 ms latency or 0.9 MByte/s bandwidth.
func figure4Axis(byBandwidth bool) (xs []float64, pts []network.Params) {
	if byBandwidth {
		for _, bw := range Bandwidths {
			xs = append(xs, bw)
			pts = append(pts, network.DefaultParams().WithWAN(3300*sim.Microsecond, bw))
		}
		return xs, pts
	}
	for _, l := range Latencies {
		xs = append(xs, l.Milliseconds())
		pts = append(pts, network.DefaultParams().WithWAN(l, 0.9e6))
	}
	return xs, pts
}

// figure4 answers every point of every curve.
func figure4(scale apps.Scale, byBandwidth bool, pol *RunPolicy, a *AnalyticOptions) ([]Figure4Curve, error) {
	suite := Apps()
	xs, pts := figure4Axis(byBandwidth)
	jobs := make([]analyticJob, len(suite))
	for i, app := range suite {
		jobs[i] = analyticJob{
			label: variantLabel(app.Name, app.HasOptimized),
			x:     Experiment{App: app, Scale: scale, Optimized: app.HasOptimized, Topo: topology.DAS()},
			pts:   pts,
		}
	}
	answers, err := answer(jobs, a, pol, DefaultCache)
	if err != nil {
		return nil, err
	}
	curves := make([]Figure4Curve, len(answers))
	for i, r := range answers {
		c := Figure4Curve{App: suite[i].Name, Optimized: suite[i].HasOptimized, X: slices.Clone(xs), Failed: r.Failed}
		for k := range xs {
			pct := 0.0
			if r.Failed == nil || r.Failed[k] == "" {
				pct = CommTimePercent(r.Baseline, r.Elapsed[k])
			}
			c.CommPct = append(c.CommPct, pct)
		}
		curves[i] = c
	}
	return curves, nil
}

// RenderFigure4 formats a set of curves as a table with one column per
// application.
func RenderFigure4(curves []Figure4Curve, xLabel string) string {
	header := []string{xLabel}
	for _, c := range curves {
		header = append(header, c.App)
	}
	t := stats.NewTable(header...)
	if len(curves) == 0 {
		return t.String()
	}
	for k := range curves[0].X {
		row := []any{fmt.Sprintf("%.4g", curves[0].X[k])}
		for _, c := range curves {
			if c.Failed != nil && c.Failed[k] != "" {
				row = append(row, FailedCell(c.Failed[k]))
			} else {
				row = append(row, fmt.Sprintf("%.1f%%", c.CommPct[k]))
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}

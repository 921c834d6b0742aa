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
// contributes a single panel, as in the paper). Runs execute concurrently;
// results are deterministic regardless.
func Figure3(scale apps.Scale, opts Figure3Options) ([]Figure3Panel, error) {
	opts = opts.withDefaults()
	lats, bws := opts.Latencies, opts.Bandwidths
	variants := variantsOf(opts.Apps)
	panels := make([]Figure3Panel, len(variants))
	for v := range variants {
		panels[v] = Figure3Panel{
			App:        variants[v].app.Name,
			Optimized:  variants[v].opt,
			Latencies:  lats,
			Bandwidths: bws,
			Rel:        make([][]float64, len(lats)),
			Failed:     make([][]string, len(lats)),
		}
		for i := range lats {
			panels[v].Rel[i] = make([]float64, len(bws))
			panels[v].Failed[i] = make([]string, len(bws))
		}
	}
	// Cell k is variant k/per at latency i and bandwidth j.
	per := len(lats) * len(bws)
	at := func(k int) (variant, int, int) { return variants[k/per], k % per / len(bws), k % len(bws) }
	err := runCells(len(variants)*per, func(k int) cell {
		v, i, j := at(k)
		return cell{
			label: figure3Label(v, lats[i], bws[j]),
			x: Experiment{App: v.app, Scale: scale, Optimized: v.opt, Topo: opts.Topo,
				Params: network.DefaultParams().WithWAN(lats[i], bws[j]), WAN: opts.WAN},
			// Slow links stretch the simulated execution, which the
			// simulator must step through.
			weight: 1 + float64(lats[i]),
		}
	}, true, opts.Policy, opts.Cache, func(k int, o outcome) {
		_, i, j := at(k)
		p := &panels[k/per]
		if o.fail != "" {
			p.Failed[i][j] = o.fail
		} else {
			p.Rel[i][j] = RelativeSpeedup(o.tl, o.res.Elapsed)
		}
	})
	// A fully healthy panel drops its Failed grid, keeping the historical
	// shape (and JSON encoding) for sweeps that never fail.
	for v := range panels {
		healthy := true
		for _, row := range panels[v].Failed {
			for _, r := range row {
				if r != "" {
					healthy = false
				}
			}
		}
		if healthy {
			panels[v].Failed = nil
		}
	}
	return panels, err
}

// figure3Label names a Figure 3 cell, e.g. "TSP (unoptimized) lat=3.300ms
// bw=0.95MB/s": fmt's "%s (%s) lat=%v bw=%gMB/s" bytes, built in one
// allocation.
func figure3Label(v variant, lat sim.Time, bw float64) string {
	b := make([]byte, 0, 64)
	b = append(b, v.app.Name...)
	b = append(b, " ("...)
	b = append(b, variantName(v.opt)...)
	b = append(b, ") lat="...)
	b = lat.Append(b)
	b = append(b, " bw="...)
	b = strconv.AppendFloat(b, bw/1e6, 'g', -1, 64)
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
// pol supervises the sweep; nil runs unsupervised.
func Figure4Bandwidth(scale apps.Scale, pol *RunPolicy) ([]Figure4Curve, error) {
	return figure4(scale, true, pol)
}

// Figure4Latency reproduces the right-hand graph: communication time
// percentage as a function of wide-area latency at 0.9 MByte/s.
func Figure4Latency(scale apps.Scale, pol *RunPolicy) ([]Figure4Curve, error) {
	return figure4(scale, false, pol)
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

// figure4 simulates every point of every curve.
func figure4(scale apps.Scale, byBandwidth bool, pol *RunPolicy) ([]Figure4Curve, error) {
	suite := Apps()
	xs, pts := figure4Axis(byBandwidth)
	tl := make([]sim.Time, len(suite))
	elapsed, failed := make([][]sim.Time, len(suite)), make([][]string, len(suite))
	for i := range suite {
		elapsed[i], failed[i] = make([]sim.Time, len(xs)), make([]string, len(xs))
	}
	// Cell j is application j/len(xs) at point j%len(xs).
	err := runCells(len(suite)*len(xs), func(j int) cell {
		app, k := suite[j/len(xs)], j%len(xs)
		return cell{
			label: fmt.Sprintf("%s (%s) figure4 x=%g", app.Name, variantName(app.HasOptimized), xs[k]),
			x: Experiment{App: app, Scale: scale, Optimized: app.HasOptimized,
				Topo: topology.DAS(), Params: pts[k]},
			weight: 1 + float64(pts[k].WANLatency),
		}
	}, true, pol, DefaultCache, func(j int, o outcome) {
		i, k := j/len(xs), j%len(xs)
		elapsed[i][k], failed[i][k] = o.res.Elapsed, o.fail
		if k == 0 {
			tl[i] = o.tl
		}
	})
	if err != nil {
		return nil, err
	}
	curves := make([]Figure4Curve, len(suite))
	for i, app := range suite {
		curves[i] = newFigure4Curve(app, xs, tl[i], elapsed[i], failed[i])
	}
	return curves, nil
}

// figure4Analytic answers each application's curve from one recording
// (solveAnalytic).
func figure4Analytic(scale apps.Scale, byBandwidth bool, pol *RunPolicy, a AnalyticOptions) ([]Figure4Curve, error) {
	suite := Apps()
	xs, pts := figure4Axis(byBandwidth)
	jobs := make([]analyticJob, len(suite))
	for i, app := range suite {
		jobs[i] = analyticJob{
			label: fmt.Sprintf("%s (%s) analytic reference", app.Name, variantName(app.HasOptimized)),
			x:     Experiment{App: app, Scale: scale, Optimized: app.HasOptimized, Topo: topology.DAS()},
			pts:   pts,
		}
	}
	answers, err := solveAnalytic(jobs, pol, DefaultCache, a)
	if err != nil {
		return nil, err
	}
	curves := make([]Figure4Curve, len(suite))
	for i, r := range answers {
		failed := make([]string, len(xs))
		for k := 0; r.Fail != nil && k < len(xs); k++ {
			failed[k] = r.Fail.Kind
		}
		curves[i] = newFigure4Curve(suite[i], xs, r.Baseline, r.Elapsed, failed)
	}
	return curves, nil
}

// newFigure4Curve is app's curve over xs from its single-cluster time tl
// and the completion time at each point; failed[k] is the failure kind of
// point k, "" for a point with an answer.
func newFigure4Curve(app apps.Info, xs []float64, tl sim.Time, elapsed []sim.Time, failed []string) Figure4Curve {
	curve := Figure4Curve{App: app.Name, Optimized: app.HasOptimized, X: slices.Clone(xs)}
	for k := range xs {
		pct := 0.0
		if failed[k] == "" {
			pct = CommTimePercent(tl, elapsed[k])
		} else {
			curve.Failed = failed
		}
		curve.CommPct = append(curve.CommPct, pct)
	}
	return curve
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

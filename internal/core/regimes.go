package core

import (
	"fmt"
	"io"

	"twolayer/internal/apps"
	"twolayer/internal/apps/collectives"
	"twolayer/internal/network"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
	"twolayer/internal/topology"
)

// This file asks the robustness question the paper's stationary testbed
// could not: when the wide-area layer fluctuates — diurnal load, background
// congestion, whole sites dropping out and rejoining — how much of the
// statically-optimized performance survives, and how much of the loss can
// an *adaptive* runtime win back? Each cell compares three runs of the same
// workload: the calm network (the reference), the regime with the static
// runtime, and the regime with adaptation enabled (measured-RTT transport
// tuning, churn-aware retransmission and work stealing, collective
// algorithm switching).

// DefaultRegimes are the dynamic scenarios the study sweeps. Periods are
// chosen well below the workloads' virtual runtimes so every run sees many
// cycles, and every regime that drops traffic carries the reliable
// transport ("rel" forces it for the rest so both arms pay the same
// protocol stack).
func DefaultRegimes() []regime.Params {
	return []regime.Params{
		{Spec: "diurnal:80ms:8+rel", Seed: 7},
		{Spec: "congestion:8:6:40ms+rel", Seed: 7},
		{Spec: "churn:120ms:30ms", Seed: 7},
	}
}

// RegimeStudyConfig parameterizes the study. Zero values select the
// defaults noted per field.
type RegimeStudyConfig struct {
	// Scale is the problem size (the zero value is Tiny; cmd/figures passes
	// its -scale flag).
	Scale apps.Scale
	// Apps are the workloads (default: the six-application suite plus the
	// Collectives workload). "Collectives" resolves to the regime-study
	// workload in apps/collectives; it is not part of the paper suite.
	Apps []string
	// Regimes are the dynamic scenarios (default DefaultRegimes).
	Regimes []regime.Params
	// WANLatency and WANBandwidth fix the calm-network wide-area point for
	// the application workloads (defaults 3.3 ms, 0.95 MB/s — the paper's
	// mid-grid reference). The Collectives workload instead runs on a
	// metro-class WAN (see metroParams): its adaptation story is the flat
	// family being the right static choice there until the regime widens
	// the gap.
	WANLatency   sim.Time
	WANBandwidth float64
	// Cache memoizes runs; nil disables memoization.
	Cache *RunCache
	// Policy supervises the sweep; nil runs unsupervised.
	Policy *RunPolicy
}

func (c RegimeStudyConfig) withDefaults() RegimeStudyConfig {
	if c.Apps == nil {
		c.Apps = []string{"Water", "Barnes-Hut", "TSP", "ASP", "Awari", "FFT", "Collectives"}
	}
	if c.Regimes == nil {
		c.Regimes = DefaultRegimes()
	}
	if c.WANLatency == 0 {
		c.WANLatency = 3300 * sim.Microsecond
	}
	if c.WANBandwidth == 0 {
		c.WANBandwidth = 0.95e6
	}
	return c
}

// metroParams is the Collectives workload's calm network: metropolitan
// fiber between the clusters, fast and close enough that the flat
// algorithm family is the right static choice — until a regime widens the
// gap at runtime.
func metroParams() network.Params {
	return network.DefaultParams().WithWAN(50*sim.Microsecond, 50e6)
}

// regimeWorkload is one column of the study: an application variant on its
// calm-network parameters.
type regimeWorkload struct {
	info      apps.Info
	optimized bool
	params    network.Params
}

// RegimeAppByName resolves a regime-study workload name: the paper suite,
// plus the Collectives workload (which is deliberately not in Apps()).
func RegimeAppByName(name string) (apps.Info, error) {
	if name == collectives.Info.Name {
		return collectives.Info, nil
	}
	return AppByName(name)
}

// RegimePoint is one cell: one workload under one regime, with the three
// runtimes and the derived robustness metrics.
type RegimePoint struct {
	Regime string // regime spec
	App    string
	// Calm is the regime-free runtime; Static and Adaptive the runtimes
	// under the regime without and with adaptation.
	Calm, Static, Adaptive sim.Time
	// RetainedStaticPct and RetainedAdaptivePct are 100*Calm/Static and
	// 100*Calm/Adaptive: how much of the calm-network performance each
	// runtime retains under the regime.
	RetainedStaticPct   float64
	RetainedAdaptivePct float64
	// RecoveredPct is 100*(Static-Adaptive)/(Static-Calm): the share of the
	// regime-induced slowdown that adaptation wins back. Zero when the
	// regime cost nothing.
	RecoveredPct float64
	// Failed is the failure kind when the run policy gave up on any of the
	// cell's three runs.
	Failed string `json:",omitempty"`
}

// RegimeStudy sweeps workloads x regimes. Results are ordered regime
// (config order), then workload (config order). Invalid configurations —
// unknown workload names, malformed regime specs — are rejected before any
// simulation runs.
func RegimeStudy(cfg RegimeStudyConfig) ([]RegimePoint, error) {
	cfg = cfg.withDefaults()
	if n, ok := firstRepeat(cfg.Apps); ok {
		return nil, fmt.Errorf("core: workload %q repeated", n)
	}
	var suite []regimeWorkload
	for _, n := range cfg.Apps {
		a, err := RegimeAppByName(n)
		if err != nil {
			return nil, err
		}
		w := regimeWorkload{
			info:      a,
			optimized: a.HasOptimized,
			params:    network.DefaultParams().WithWAN(cfg.WANLatency, cfg.WANBandwidth),
		}
		if a.Name == collectives.Info.Name {
			// The Collectives story starts from the flat family on a metro
			// WAN: the statically-correct choice there, which the regime
			// invalidates at runtime.
			w.optimized = false
			w.params = metroParams()
		}
		suite = append(suite, w)
	}
	for _, r := range cfg.Regimes {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if !r.Enabled() {
			return nil, fmt.Errorf("core: empty regime in study config")
		}
	}
	topo := topology.DAS() // the paper's 4x8 machine

	points := make([]RegimePoint, len(cfg.Regimes)*len(suite))
	// Arm a of point i is cell a*len(points)+i: calm (shared across
	// regimes through the run cache), static under the regime, adaptive
	// under it. Arm-major order runs different workloads side by side.
	elapsed, failed := make([]sim.Time, 3*len(points)), make([]string, 3*len(points))
	err := runCells(3*len(points), func(k int) cell {
		i, a := k%len(points), k/len(points)
		r, w := cfg.Regimes[i/len(suite)], suite[i%len(suite)]
		x := Experiment{App: w.info, Scale: cfg.Scale, Optimized: w.optimized,
			Topo: topo, Params: w.params, Adaptive: a == 2}
		if a > 0 {
			x.Regime = r
		}
		arm := [...]string{"calm", "static", "adaptive"}[a]
		return cell{label: fmt.Sprintf("%s regime=%s arm=%s", w.info.Name, r.Spec, arm), x: x}
	}, false, cfg.Policy, cfg.Cache, func(k int, o outcome) {
		elapsed[k], failed[k] = o.res.Elapsed, o.fail
	})
	for i := range points {
		p := RegimePoint{Regime: cfg.Regimes[i/len(suite)].Spec, App: suite[i%len(suite)].info.Name}
		// The point takes the first failed arm's kind, and the run times
		// of the arms before it.
		for a, dst := range []*sim.Time{&p.Calm, &p.Static, &p.Adaptive} {
			if p.Failed = failed[a*len(points)+i]; p.Failed != "" {
				break
			}
			*dst = elapsed[a*len(points)+i]
		}
		if p.Failed == "" {
			p.RetainedStaticPct = RelativeSpeedup(p.Calm, p.Static)
			p.RetainedAdaptivePct = RelativeSpeedup(p.Calm, p.Adaptive)
			if lost := p.Static - p.Calm; lost > 0 {
				p.RecoveredPct = 100 * float64(p.Static-p.Adaptive) / float64(lost)
			}
		}
		points[i] = p
	}
	return points, err
}

// RenderRegimeStudy formats the study: one table per regime with the three
// runtimes and robustness metrics per workload.
func RenderRegimeStudy(points []RegimePoint) string {
	if len(points) == 0 {
		return ""
	}
	var regimeOrder []string
	byRegime := map[string][]RegimePoint{}
	for _, p := range points {
		if _, ok := byRegime[p.Regime]; !ok {
			regimeOrder = append(regimeOrder, p.Regime)
		}
		byRegime[p.Regime] = append(byRegime[p.Regime], p)
	}
	out := ""
	for _, r := range regimeOrder {
		out += fmt.Sprintf("Regime %s (static vs adaptive runtime):\n", r)
		t := stats.NewTable("App", "Calm", "Static", "Adaptive",
			"Retained static", "Retained adaptive", "Recovered")
		for _, p := range byRegime[r] {
			if p.Failed != "" {
				t.AddRow(p.App, FailedCell(p.Failed), "-", "-", "-", "-", "-")
				continue
			}
			t.AddRow(p.App,
				fmtMS(p.Calm), fmtMS(p.Static), fmtMS(p.Adaptive),
				fmt.Sprintf("%.1f%%", p.RetainedStaticPct),
				fmt.Sprintf("%.1f%%", p.RetainedAdaptivePct),
				fmt.Sprintf("%.1f%%", p.RecoveredPct))
		}
		out += t.String() + "\n"
	}
	return out
}

func fmtMS(t sim.Time) string {
	return fmt.Sprintf("%.1f ms", float64(t)/float64(sim.Millisecond))
}

// WriteRegimeCSV emits the full study as CSV with deterministic formatting,
// one row per point.
func WriteRegimeCSV(w io.Writer, points []RegimePoint) {
	t := stats.NewTable("regime", "app", "status", "calm_ms", "static_ms",
		"adaptive_ms", "retained_static_pct", "retained_adaptive_pct",
		"recovered_pct")
	for _, p := range points {
		status := "ok"
		calm, static, adaptive, rs, ra, rec := "", "", "", "", "", ""
		if p.Failed != "" {
			status = FailedCell(p.Failed)
		} else {
			ms := func(v sim.Time) string { return fmt.Sprintf("%.3f", float64(v)/float64(sim.Millisecond)) }
			calm, static, adaptive = ms(p.Calm), ms(p.Static), ms(p.Adaptive)
			rs = fmt.Sprintf("%.2f", p.RetainedStaticPct)
			ra = fmt.Sprintf("%.2f", p.RetainedAdaptivePct)
			rec = fmt.Sprintf("%.2f", p.RecoveredPct)
		}
		t.AddRow(p.Regime, p.App, status, calm, static, adaptive, rs, ra, rec)
	}
	t.CSV(w)
}

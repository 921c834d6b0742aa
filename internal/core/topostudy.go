package core

import (
	"fmt"
	"io"
	"strings"

	"twolayer/internal/apps"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
	"twolayer/internal/topology"
	"twolayer/internal/wantopo"
)

// This file re-asks the paper's Section 5.1 cluster-structure question at
// scales the testbed could never reach. The paper found that splitting 32
// processors into more, smaller clusters *helps* bandwidth-bound programs —
// but its wide-area layer was a clique, where every new cluster brings
// dedicated links to every other and bisection bandwidth grows
// quadratically. On a real wide-area graph (a torus, a circulant) the
// bisection grows far more slowly and messages pay multi-hop forwarding, so
// the study sweeps cluster counts across wide-area graph families and
// reports whether the "more, smaller clusters" win survives.

// DefaultTopologySpecs are the graph families the study compares: the
// paper's clique, the APENet-style 2D torus, and a two-offset circulant.
var DefaultTopologySpecs = []string{"clique", "torus2", "circulant"}

// DefaultTopologyClusters are the cluster counts the study sweeps; the
// processor total stays fixed, so clusters shrink as their count grows.
var DefaultTopologyClusters = []int{16, 32, 64}

// TopologyStudyConfig parameterizes the study. Zero values select the
// defaults noted per field.
type TopologyStudyConfig struct {
	// Scale is the problem size (default Tiny — the study's axis is machine
	// shape, not problem size, and Tiny keeps hundreds of clusters cheap).
	Scale apps.Scale
	// Apps are the applications to run (default Water and ASP: the paper's
	// bandwidth-bound shape winner and a latency-tolerant contrast).
	Apps []string
	// Procs is the fixed total processor count (default 128). Every swept
	// cluster count must divide it.
	Procs int
	// Clusters are the cluster counts to sweep (default
	// DefaultTopologyClusters).
	Clusters []int
	// Topologies are the wide-area graph specs to compare, in wantopo.Parse
	// syntax (default DefaultTopologySpecs).
	Topologies []string
	// Cache memoizes runs; nil disables memoization.
	Cache *RunCache
	// Policy supervises the sweep; nil runs unsupervised.
	Policy *RunPolicy
}

func (c TopologyStudyConfig) withDefaults() TopologyStudyConfig {
	if c.Apps == nil {
		c.Apps = []string{"Water", "ASP"}
	}
	if c.Procs == 0 {
		c.Procs = 128
	}
	if c.Clusters == nil {
		c.Clusters = DefaultTopologyClusters
	}
	if c.Topologies == nil {
		c.Topologies = DefaultTopologySpecs
	}
	return c
}

// topoMachine is one machine shape of the study under one wide-area graph.
type topoMachine struct {
	topo   *topology.Topology
	wan    *wantopo.WAN
	family string
}

// resolve looks up the applications and builds every (clusters, spec)
// machine, so that all validation errors surface before the first
// simulation starts.
func (c TopologyStudyConfig) resolve() ([]apps.Info, []topoMachine, error) {
	suite, err := appsByName(c.Apps)
	if err != nil {
		return nil, nil, err
	}
	if n, ok := firstRepeat(c.Clusters); ok {
		return nil, nil, fmt.Errorf("core: cluster count %d repeated", n)
	}
	if spec, ok := firstRepeat(c.Topologies); ok {
		return nil, nil, fmt.Errorf("core: topology spec %q repeated", spec)
	}
	machines := make([]topoMachine, 0, len(c.Clusters)*len(c.Topologies))
	for _, n := range c.Clusters {
		if n < 1 || c.Procs%n != 0 {
			return nil, nil, fmt.Errorf("core: cluster count %d does not divide %d processors", n, c.Procs)
		}
		topo, err := topology.Uniform(n, c.Procs/n)
		if err != nil {
			return nil, nil, err
		}
		for _, spec := range c.Topologies {
			if strings.TrimSpace(spec) == "" {
				// wantopo.Parse reads "" as the clique; here it would
				// be a cell with no family name.
				return nil, nil, fmt.Errorf("core: empty topology spec in %q", c.Topologies)
			}
			w, err := wantopo.Parse(spec, n)
			if err != nil {
				return nil, nil, err
			}
			machines = append(machines, topoMachine{topo, w, spec})
		}
	}
	return suite, machines, nil
}

// Validate reports the error TopologyStudy would refuse cfg with, without
// running anything.
func (c TopologyStudyConfig) Validate() error {
	_, _, err := c.withDefaults().resolve()
	return err
}

// TopologyPoint is one cell of the study: one application on one machine
// shape under one wide-area graph, annotated with the graph's metrics.
type TopologyPoint struct {
	App      string
	Topology string // canonical graph spec ("clique", "torus:8x8", ...)
	// Family is the swept spec as configured ("torus2"), constant across
	// cluster counts where the canonical spec is not — it keys the
	// rendered comparison columns.
	Family   string
	Clusters int
	Shape    string // machine shape, e.g. "64x2"
	// Graph metrics: routing diameter, mean path length (hops), and the
	// directed links crossing the balanced cluster bipartition — the
	// quantity whose quadratic growth powers the paper's clique result.
	Diameter       int
	MeanPath       float64
	BisectionLinks int
	// Elapsed is the multi-cluster runtime; RelPct the paper metric 100*TL/TM
	// against the single-cluster run with the same processor count.
	Elapsed sim.Time
	RelPct  float64
	// WANBytes is total wide-area traffic, including forwarded hops.
	WANBytes int64
	// Failed is the failure kind when the run policy gave up on this cell.
	Failed string `json:",omitempty"`
}

// TopologyStudy sweeps applications x cluster counts x wide-area graphs at
// a fixed total processor count and at the reference wide-area point
// (ReferenceParams: 3.3 ms, 0.95 MB/s). Results are ordered
// app (config order), then cluster count, then topology. Invalid
// configurations (cluster counts not dividing Procs, malformed or
// disconnected graph specs) are rejected before any simulation runs.
func TopologyStudy(cfg TopologyStudyConfig) ([]TopologyPoint, error) {
	cfg = cfg.withDefaults()
	suite, machines, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	points := make([]TopologyPoint, len(suite)*len(machines))
	at := func(i int) (apps.Info, topoMachine) {
		return suite[i/len(machines)], machines[i%len(machines)]
	}
	err = runCells(len(points), func(i int) cell {
		a, m := at(i)
		return cell{
			label: fmt.Sprintf("%s shape=%s wan=%s", a.Name, m.topo, m.wan.Spec()),
			x: Experiment{App: a, Scale: cfg.Scale, Optimized: a.HasOptimized, Topo: m.topo,
				Params: ReferenceParams(), WAN: m.wan},
			// Sparser graphs stretch virtual time (multi-hop latency) and
			// more clusters mean more wide-area traffic; both scale the
			// event count the simulator must step through.
			weight: float64(m.topo.Clusters()) * m.wan.MeanPathLength(),
		}
	}, true, cfg.Policy, cfg.Cache, func(i int, o outcome) {
		a, m := at(i)
		p := TopologyPoint{
			App: a.Name, Topology: m.wan.Spec(), Family: m.family,
			Clusters: m.topo.Clusters(), Shape: m.topo.String(),
			Diameter:       m.wan.Diameter(),
			MeanPath:       m.wan.MeanPathLength(),
			BisectionLinks: m.wan.BisectionLinks(),
			Failed:         o.fail,
		}
		if o.fail == "" {
			p.Elapsed = o.res.Elapsed
			p.RelPct = RelativeSpeedup(o.tl, o.res.Elapsed)
			p.WANBytes = o.res.WAN.Bytes
		}
		points[i] = p
	})
	return points, err
}

// RenderTopologyStudy formats the study: first the graph metrics per
// (cluster count, topology), then one table per application with cluster
// counts as rows and topologies as columns — the clique column is the
// paper's quadratic-bisection regime, the others are what real wide-area
// fabrics offer.
func RenderTopologyStudy(points []TopologyPoint) string {
	if len(points) == 0 {
		return ""
	}
	type graphKey struct {
		clusters int
		spec     string
	}
	var graphOrder []graphKey
	graphs := map[graphKey]TopologyPoint{}
	var appOrder []string
	var specOrder []string
	for _, p := range points {
		gk := graphKey{p.Clusters, p.Topology}
		if _, ok := graphs[gk]; !ok {
			graphs[gk] = p
			graphOrder = append(graphOrder, gk)
		}
		if !nameIn(appOrder, p.App) {
			appOrder = append(appOrder, p.App)
		}
		if !nameIn(specOrder, p.Family) {
			specOrder = append(specOrder, p.Family)
		}
	}

	out := "Wide-area graphs:\n"
	gt := stats.NewTable("Clusters", "Topology", "Diameter", "Mean path", "Bisection links")
	for _, gk := range graphOrder {
		p := graphs[gk]
		gt.AddRow(fmt.Sprint(p.Clusters), p.Topology, fmt.Sprint(p.Diameter),
			fmt.Sprintf("%.2f", p.MeanPath), fmt.Sprint(p.BisectionLinks))
	}
	out += gt.String()

	for _, app := range appOrder {
		out += fmt.Sprintf("\n%s relative speedup (%% of single-cluster):\n", app)
		header := []string{"Shape"}
		header = append(header, specOrder...)
		t := stats.NewTable(header...)
		var shapes []string
		bySpec := map[string]map[string]TopologyPoint{}
		for _, p := range points {
			if p.App != app {
				continue
			}
			if bySpec[p.Shape] == nil {
				bySpec[p.Shape] = map[string]TopologyPoint{}
				shapes = append(shapes, p.Shape)
			}
			bySpec[p.Shape][p.Family] = p
		}
		for _, shape := range shapes {
			row := []any{shape}
			for _, spec := range specOrder {
				p, ok := bySpec[shape][spec]
				switch {
				case !ok:
					row = append(row, "-")
				case p.Failed != "":
					row = append(row, FailedCell(p.Failed))
				default:
					row = append(row, fmt.Sprintf("%.1f%%", p.RelPct))
				}
			}
			t.AddRow(row...)
		}
		out += t.String()
	}
	return out
}

// WriteTopologyCSV emits the full study as CSV with deterministic
// formatting, one row per point.
func WriteTopologyCSV(w io.Writer, points []TopologyPoint) {
	t := stats.NewTable("app", "family", "topology", "clusters", "shape",
		"diameter", "mean_path", "bisection_links", "status",
		"elapsed_ms", "relative_speedup_pct", "wan_bytes")
	for _, p := range points {
		status := "ok"
		elapsed, rel, bytes := "", "", ""
		if p.Failed != "" {
			status = FailedCell(p.Failed)
		} else {
			elapsed = fmt.Sprintf("%.3f", float64(p.Elapsed)/float64(sim.Millisecond))
			rel = fmt.Sprintf("%.2f", p.RelPct)
			bytes = fmt.Sprint(p.WANBytes)
		}
		t.AddRow(p.App, p.Family, p.Topology, fmt.Sprint(p.Clusters), p.Shape,
			fmt.Sprint(p.Diameter), fmt.Sprintf("%.3f", p.MeanPath),
			fmt.Sprint(p.BisectionLinks), status, elapsed, rel, bytes)
	}
	t.CSV(w)
}

package core

import (
	"fmt"

	"twolayer/internal/apps"
	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
	"twolayer/internal/topology"
)

// ShapeResult is one point of the Section 5.1 cluster-structure experiment:
// the same 32 processors arranged as different numbers of clusters, on a
// fully connected wide-area mesh.
type ShapeResult struct {
	App      string
	Shape    string
	Clusters int
	Elapsed  sim.Time
	RelPct   float64 // relative to the single-cluster run
	// Failed is the failure kind when the run policy gave up on this
	// cell, "" for a healthy run.
	Failed string `json:",omitempty"`
}

// DefaultShapes are the 32-processor arrangements the study compares.
func DefaultShapes() []*topology.Topology {
	return []*topology.Topology{
		topology.MustUniform(2, 16),
		topology.MustUniform(4, 8),
		topology.MustUniform(8, 4),
	}
}

// ClusterShapeStudy runs the optimized variants over the shapes at the
// given wide-area setting. On the fully connected mesh, more and smaller
// clusters add bisection bandwidth, so bandwidth-bound applications speed
// up even though fast links were replaced by slow ones. pol supervises the
// sweep; nil runs unsupervised.
func ClusterShapeStudy(scale apps.Scale, appNames []string, wanLatency sim.Time, wanBandwidth float64, pol *RunPolicy) ([]ShapeResult, error) {
	return clusterShapeStudy(scale, appNames, wanLatency, wanBandwidth, pol, nil)
}

// ClusterShapeStudyAnalytic is ClusterShapeStudy answered analytically:
// one recording per (application, shape) at the reference point, then an
// analytic solve at the asked wide-area setting.
func ClusterShapeStudyAnalytic(scale apps.Scale, appNames []string, wanLatency sim.Time, wanBandwidth float64, pol *RunPolicy, a AnalyticOptions) ([]ShapeResult, error) {
	return clusterShapeStudy(scale, appNames, wanLatency, wanBandwidth, pol, &a)
}

// clusterShapeStudy simulates every cell, or answers it analytically when
// a is non-nil.
func clusterShapeStudy(scale apps.Scale, appNames []string, wanLatency sim.Time, wanBandwidth float64, pol *RunPolicy, a *AnalyticOptions) ([]ShapeResult, error) {
	shapes := DefaultShapes()
	suite, err := appsByName(appNames)
	if err != nil {
		return nil, err
	}
	// Cell k is application k/len(shapes) on shape k%len(shapes).
	n := len(suite) * len(shapes)
	exp := func(k int) Experiment {
		app := suite[k/len(shapes)]
		return Experiment{App: app, Scale: scale, Optimized: app.HasOptimized, Topo: shapes[k%len(shapes)],
			Params: network.DefaultParams().WithWAN(wanLatency, wanBandwidth)}
	}
	results := make([]ShapeResult, n)
	// result files cell k's outcome: its run time against the
	// single-cluster time tl, or the kind of failure the policy gave up on.
	result := func(k int, tl, elapsed sim.Time, fail string) {
		x := exp(k)
		r := ShapeResult{App: x.App.Name, Shape: x.Topo.String(), Clusters: x.Topo.Clusters(), Failed: fail}
		if fail == "" {
			r.Elapsed, r.RelPct = elapsed, RelativeSpeedup(tl, elapsed)
		}
		results[k] = r
	}
	label := func(k int) string {
		return fmt.Sprintf("%s shape=%s", suite[k/len(shapes)].Name, shapes[k%len(shapes)])
	}

	if a != nil {
		jobs := make([]analyticJob, n)
		for k := range jobs {
			x := exp(k)
			jobs[k] = analyticJob{label: label(k) + " analytic reference", x: x, pts: []network.Params{x.Params}}
		}
		answers, err := solveAnalytic(jobs, pol, DefaultCache, *a)
		if err != nil {
			return nil, err
		}
		for k, r := range answers {
			if r.Fail != nil {
				result(k, 0, 0, r.Fail.Kind)
			} else {
				result(k, r.Baseline, r.Elapsed[0], "")
			}
		}
		return results, nil
	}

	err = runCells(n, func(k int) cell {
		return cell{label: label(k), x: exp(k), weight: 1}
	}, true, pol, DefaultCache, func(k int, o outcome) {
		result(k, o.tl, o.res.Elapsed, o.fail)
	})
	return results, err
}

// RenderShapes formats the study.
func RenderShapes(results []ShapeResult) string {
	t := stats.NewTable("Program", "Shape", "Runtime", "Relative speedup")
	for _, r := range results {
		if r.Failed != "" {
			t.AddRow(r.App, r.Shape, FailedCell(r.Failed), FailedCell(r.Failed))
			continue
		}
		t.AddRow(r.App, r.Shape, r.Elapsed.String(), fmt.Sprintf("%.1f%%", r.RelPct))
	}
	return t.String()
}

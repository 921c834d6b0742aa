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
	type cellKey struct{ app, shape int }
	var cells []cellKey
	for a := range suite {
		for s := range shapes {
			cells = append(cells, cellKey{a, s})
		}
	}
	exp := func(k int) Experiment {
		app := suite[cells[k].app]
		return Experiment{App: app, Scale: scale, Optimized: app.HasOptimized, Topo: shapes[cells[k].shape],
			Params: network.DefaultParams().WithWAN(wanLatency, wanBandwidth)}
	}
	results := make([]ShapeResult, len(cells))
	// result files cell k's outcome: its run time against the
	// single-cluster time tl, or the failure the policy gave up on.
	result := func(k int, tl, elapsed sim.Time, fail *CellFailure) {
		x := exp(k)
		r := ShapeResult{App: x.App.Name, Shape: x.Topo.String(), Clusters: x.Topo.Clusters()}
		if fail != nil {
			r.Failed = fail.Kind
		} else {
			r.Elapsed, r.RelPct = elapsed, RelativeSpeedup(tl, elapsed)
		}
		results[k] = r
	}
	label := func(k int) string {
		return fmt.Sprintf("%s shape=%s", suite[cells[k].app].Name, shapes[cells[k].shape])
	}

	if a != nil {
		jobs := make([]analyticJob, len(cells))
		for k := range cells {
			x := exp(k)
			jobs[k] = analyticJob{label: label(k) + " analytic reference", x: x, pts: []network.Params{x.Params}}
		}
		answers, err := solveAnalytic(jobs, pol, DefaultCache, *a)
		if err != nil {
			return nil, err
		}
		for k, r := range answers {
			var elapsed sim.Time
			if r.Fail == nil {
				elapsed = r.Elapsed[0]
			}
			result(k, r.Baseline, elapsed, r.Fail)
		}
		return results, nil
	}

	if err := validateCells(len(cells), exp); err != nil {
		return nil, err
	}
	base := NewBaselines(scale)
	for _, app := range suite {
		if _, err := base.SingleCluster(app, 32); err != nil {
			return nil, err
		}
	}
	err = forEachWeighted(len(cells), nil, label, func(k int) error {
		x := exp(k)
		res, fail, err := pol.run(label(k), x, DefaultCache)
		if err != nil {
			return err
		}
		tl, err := base.SingleCluster(x.App, 32)
		if err != nil {
			return err
		}
		result(k, tl, res.Elapsed, fail)
		return nil
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

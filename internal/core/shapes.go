package core

import (
	"fmt"

	"twolayer/internal/apps"
	"twolayer/internal/network"
	"twolayer/internal/par"
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
	base := NewBaselines(scale)
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
	if err := validateCells(len(cells), a != nil, exp); err != nil {
		return nil, err
	}
	for _, app := range suite {
		if _, err := base.SingleCluster(app, 32); err != nil {
			return nil, err
		}
	}
	slots, suffix := 1, ""
	if a != nil {
		slots, suffix = recordingSlots, " analytic reference"
	}
	results := make([]ShapeResult, len(cells))
	label := func(k int) string {
		return fmt.Sprintf("%s shape=%s%s", suite[cells[k].app].Name, shapes[cells[k].shape], suffix)
	}
	err = forEachHolding(slots, len(cells), nil, label, func(k int) error {
		x := exp(k)
		r := ShapeResult{App: x.App.Name, Shape: x.Topo.String(), Clusters: x.Topo.Clusters()}
		var elapsed sim.Time
		var fail *CellFailure
		var err error
		if a == nil {
			var res par.Result
			res, fail, err = pol.run(label(k), x, DefaultCache)
			elapsed = res.Elapsed
		} else {
			var pt AnalyticPoint
			pt, fail, err = SolveAnalytic(label(k), x, pol, DefaultCache, *a)
			elapsed = pt.Elapsed
		}
		if err != nil {
			return err
		}
		if fail != nil {
			r.Failed = fail.Kind
		} else {
			tl, err := base.SingleCluster(x.App, 32)
			if err != nil {
				return err
			}
			r.Elapsed, r.RelPct = elapsed, RelativeSpeedup(tl, elapsed)
		}
		results[k] = r
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

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
// sweep; nil runs unsupervised. a chooses the answerer (see answer): nil
// simulates every cell, otherwise each (application, shape) is recorded
// once at the reference point and solved at the asked setting.
func ClusterShapeStudy(scale apps.Scale, appNames []string, wanLatency sim.Time, wanBandwidth float64, pol *RunPolicy, a *AnalyticOptions) ([]ShapeResult, error) {
	shapes := DefaultShapes()
	suite, err := appsByName(appNames)
	if err != nil {
		return nil, err
	}
	pts := []network.Params{network.DefaultParams().WithWAN(wanLatency, wanBandwidth)}
	// Job k is application k/len(shapes) on shape k%len(shapes).
	jobs := make([]analyticJob, len(suite)*len(shapes))
	for k := range jobs {
		app, shape := suite[k/len(shapes)], shapes[k%len(shapes)]
		jobs[k] = analyticJob{
			label: variantLabel(app.Name, app.HasOptimized) + " shape=" + shape.String(),
			x:     Experiment{App: app, Scale: scale, Optimized: app.HasOptimized, Topo: shape},
			pts:   pts,
		}
	}
	answers, err := answer(jobs, a, pol, DefaultCache)
	if answers == nil {
		return nil, err
	}
	results := make([]ShapeResult, len(answers))
	for k, r := range answers {
		x := jobs[k].x
		res := ShapeResult{App: x.App.Name, Shape: x.Topo.String(), Clusters: x.Topo.Clusters()}
		if r.Failed != nil {
			res.Failed = r.Failed[0]
		} else {
			res.Elapsed, res.RelPct = r.Elapsed[0], RelativeSpeedup(r.Baseline, r.Elapsed[0])
		}
		results[k] = res
	}
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

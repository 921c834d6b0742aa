package analytic_test

import (
	"testing"

	"twolayer/internal/analytic"
	"twolayer/internal/apps"
	"twolayer/internal/core"
	"twolayer/internal/network"
	"twolayer/internal/topology"
)

// BenchmarkBatchWalk times batchWalk32, the frozen grid's 32-lane walk, on
// unoptimized Awari at Small (the frozen variant that costs a heatmap the
// most), once with the Go lane loops and once with the vector kernels,
// reported per graph op per lane.
func BenchmarkBatchWalk(b *testing.B) {
	app, err := core.AppByName("Awari")
	if err != nil {
		b.Fatal(err)
	}
	x := core.Experiment{App: app, Scale: apps.Small, Topo: topology.DAS(), Params: core.ReferenceParams()}
	rec := analytic.NewRecorder(x.Topo, x.Params)
	x.Trace = rec
	res, err := x.Run()
	if err != nil {
		b.Fatal(err)
	}
	g, err := rec.Finish(res.Elapsed)
	if err != nil {
		b.Fatal(err)
	}
	var ps []network.Params
	for _, lat := range core.HeatmapLatencies(analytic.BatchLanes) {
		ps = append(ps, network.DefaultParams().WithWAN(lat, core.ReferenceWANBandwidth))
	}
	for _, path := range []struct {
		name   string
		vector bool
	}{{"go", false}, {"avx2", true}} {
		b.Run(path.name, func(b *testing.B) {
			if path.vector && !analytic.VectorLanes() {
				b.Skip("no vector lane kernels in this build or on this CPU")
			}
			defer analytic.SetVectorLanes(path.vector)()
			ev := analytic.NewEval(g)
			ev.SolveBatch(ps) // load the lane columns and transmission rows
			st := ev.Stats()
			opsPerLane := float64(st.OpsEvaluated) / float64(st.BatchPoints) * analytic.BatchLanes
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Walk()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*opsPerLane), "ns/op-lane")
		})
	}
}

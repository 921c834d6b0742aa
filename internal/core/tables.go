package core

import (
	"fmt"

	"twolayer/internal/apps"
	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
	"twolayer/internal/topology"
)

// Table1Row reproduces one row of the paper's Table 1: single-cluster
// behaviour of an application.
type Table1Row struct {
	App        string
	Speedup32  float64
	Speedup8   float64
	TrafficMBs float64 // total fast-network traffic rate on 32 processors
	Runtime    sim.Time
}

// Table1 measures every application on single all-Myrinet clusters of 1, 8
// and 32 processors.
func Table1(scale apps.Scale) ([]Table1Row, error) {
	suite, procs := Apps(), []int{1, 8, 32}
	elapsed := make([]sim.Time, len(suite)*len(procs))
	traffic := make([]float64, len(suite))
	// Cell k is application k/3 on procs[k%3] processors.
	err := runCells(len(elapsed), func(k int) cell {
		app, p := suite[k/3], procs[k%3]
		return cell{label: fmt.Sprintf("%s table1 procs=%d", app.Name, p), x: Experiment{
			App: app, Scale: scale, Topo: topology.SingleCluster(p), Params: network.DefaultParams(),
		}}
	}, false, nil, DefaultCache, func(k int, o outcome) {
		elapsed[k] = o.res.Elapsed
		if procs[k%3] == 32 {
			traffic[k/3] = float64(o.res.Intra.Bytes) / 1e6 / o.res.Elapsed.Seconds()
		}
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, len(suite))
	for i, app := range suite {
		t1, t8, t32 := elapsed[3*i], elapsed[3*i+1], elapsed[3*i+2]
		rows[i] = Table1Row{
			App:        app.Name,
			Speedup32:  float64(t1) / float64(t32),
			Speedup8:   float64(t1) / float64(t8),
			TrafficMBs: traffic[i],
			Runtime:    t32,
		}
	}
	return rows, nil
}

// RenderTable1 formats Table 1 like the paper.
func RenderTable1(rows []Table1Row) string {
	t := stats.NewTable("Program", "Speedup 32p", "Speedup 8p", "Traffic 32p MByte/s", "Runtime 32p")
	for _, r := range rows {
		t.AddRow(r.App, r.Speedup32, r.Speedup8, r.TrafficMBs, r.Runtime.String())
	}
	return t.String()
}

// Table2Row is a row of the paper's Table 2: communication pattern and
// cluster-aware optimization per application.
type Table2Row struct {
	App          string
	Pattern      string
	Optimization string
	HasOptimized bool
}

// Table2 returns the application metadata.
func Table2() []Table2Row {
	var rows []Table2Row
	for _, a := range Apps() {
		rows = append(rows, Table2Row{a.Name, a.Pattern, a.Optimization, a.HasOptimized})
	}
	return rows
}

// RenderTable2 formats Table 2 like the paper.
func RenderTable2() string {
	t := stats.NewTable("Program", "Communication", "Optimization")
	for _, r := range Table2() {
		t.AddRow(r.App, r.Pattern, r.Optimization)
	}
	return t.String()
}

// Figure1Point is one application's inter-cluster traffic in the paper's
// Figure 1 scatter plot: per-cluster outgoing wide-area volume and message
// rate on the 4x8 system at 6 MByte/s / 0.5 ms, unoptimized.
type Figure1Point struct {
	App            string
	VolumeMBs      float64 // MByte/s per cluster
	MessagesPerSec float64 // messages/s per cluster
}

// Figure1 measures the unoptimized applications' inter-cluster traffic at
// the paper's reference setting.
func Figure1(scale apps.Scale) ([]Figure1Point, error) {
	suite := Apps()
	points := make([]Figure1Point, len(suite))
	err := runCells(len(suite), func(i int) cell {
		return cell{label: suite[i].Name + " figure1", x: Experiment{
			App: suite[i], Scale: scale, Topo: topology.DAS(),
			Params: network.DefaultParams().WithWAN(500*sim.Microsecond, 6.0e6),
		}}
	}, false, nil, DefaultCache, func(i int, o outcome) {
		secs := o.res.Elapsed.Seconds()
		var vol, msgs []float64
		for _, c := range o.res.ClusterWANOut {
			vol = append(vol, float64(c.Bytes)/1e6/secs)
			msgs = append(msgs, float64(c.Messages)/secs)
		}
		points[i] = Figure1Point{
			App:            suite[i].Name,
			VolumeMBs:      stats.Mean(vol),
			MessagesPerSec: stats.Mean(msgs),
		}
	})
	return points, err
}

// RenderFigure1 formats the Figure 1 data as a table.
func RenderFigure1(points []Figure1Point) string {
	t := stats.NewTable("Program", "Volume MByte/s per cluster", "Messages/s per cluster")
	for _, p := range points {
		t.AddRow(p.App, p.VolumeMBs, p.MessagesPerSec)
	}
	return t.String()
}

package twolayer_test

import (
	"fmt"

	"twolayer"
)

// The simplest possible program: a ring token passed over the two-layer
// machine, with deterministic timing.
func ExampleRun() {
	topo := twolayer.DAS()
	res, err := twolayer.Run(topo, twolayer.DefaultParams(), 1, func(e *twolayer.Env) {
		next := (e.Rank() + 1) % e.Size()
		prev := (e.Rank() + e.Size() - 1) % e.Size()
		e.Send(next, 1, e.Rank(), 64)
		e.RecvFrom(prev, 1)
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("wide-area messages:", res.WAN.Messages)
	// Output:
	// wide-area messages: 4
}

// Running one of the paper's applications at a chosen NUMA gap and
// verifying its computed result.
func ExampleExperiment() {
	app, _ := twolayer.AppByName("TSP")
	res, err := twolayer.Experiment{
		App:       app,
		Scale:     twolayer.TinyScale,
		Optimized: true,
		Topo:      twolayer.DAS(),
		Params:    twolayer.DefaultParams().WithWAN(10*twolayer.Millisecond, 1e6),
		Verify:    true,
	}.Run()
	if err != nil {
		panic(err)
	}
	fmt.Println("verified:", res.Elapsed > 0)
	// Output:
	// verified: true
}

// Collective operations in the hierarchical (MagPIe) style: a global sum.
func ExampleNewComm() {
	topo := twolayer.DAS()
	var sum float64
	_, err := twolayer.Run(topo, twolayer.DefaultParams(), 1, func(e *twolayer.Env) {
		comm := twolayer.NewComm(e, twolayer.Hierarchical)
		out := comm.Allreduce([]float64{1}, twolayer.SumOp)
		if e.Rank() == 0 {
			sum = out[0]
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("sum:", sum)
	// Output:
	// sum: 32
}

// The MPI-flavoured interface: communicators, point-to-point, split.
func ExampleMPIWorld() {
	topo := twolayer.DAS()
	var clusterSizes []int
	_, err := twolayer.Run(topo, twolayer.DefaultParams(), 1, func(e *twolayer.Env) {
		comm := twolayer.MPIWorld(e, twolayer.Hierarchical)
		sub := comm.ClusterComm()
		sizes := comm.Gather(0, []float64{float64(sub.Size())})
		if comm.Rank() == 0 {
			clusterSizes = []int{int(sizes[0][0]), int(sizes[31][0])}
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("cluster sizes seen by ranks 0 and 31:", clusterSizes)
	// Output:
	// cluster sizes seen by ranks 0 and 31: [8 8]
}

// Tracing a run: where do the bytes go?
func ExampleNewTraceStream() {
	topo := twolayer.DAS()
	tr := twolayer.NewTraceStream(topo.Procs())
	_, err := twolayer.RunWith(topo, twolayer.RunOptions{Seed: 1, Trace: tr},
		func(e *twolayer.Env) {
			if e.Rank() == 0 {
				e.Send(8, 1, nil, 5000) // cluster 0 -> cluster 1
			}
			if e.Rank() == 8 {
				e.Recv(1)
			}
		})
	if err != nil {
		panic(err)
	}
	s := tr.Summarize()
	fmt.Printf("messages: %d, wide-area bytes: %d\n", s.Messages, s.WANBytes)
	// Output:
	// messages: 1, wide-area bytes: 5000
}

package twolayer_test

import (
	"testing"

	"twolayer"
)

func TestPublicAPIQuickstart(t *testing.T) {
	topo := twolayer.DAS()
	if topo.Procs() != 32 || topo.Clusters() != 4 {
		t.Fatalf("DAS = %v", topo)
	}
	app, err := twolayer.AppByName("TSP")
	if err != nil {
		t.Fatal(err)
	}
	params := twolayer.DefaultParams().WithWAN(3300*twolayer.Microsecond, 0.95e6)
	res, err := twolayer.Experiment{
		App: app, Scale: twolayer.TinyScale, Optimized: true,
		Topo: topo, Params: params, Verify: true,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Error("no virtual time elapsed")
	}
	if rel := twolayer.RelativeSpeedup(res.Elapsed, res.Elapsed); rel != 100 {
		t.Errorf("self-relative speedup = %v", rel)
	}
}

func TestPublicAPICustomJob(t *testing.T) {
	topo, err := twolayer.Uniform(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	res, err := twolayer.Run(topo, twolayer.DefaultParams(), 7, func(e *twolayer.Env) {
		comm := twolayer.NewComm(e, twolayer.Hierarchical)
		out := comm.Allreduce([]float64{float64(e.Rank())}, twolayer.SumOp)
		if e.Rank() == 0 {
			sum = int(out[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 15 {
		t.Errorf("allreduce sum = %d, want 15", sum)
	}
	if res.WAN.Messages == 0 {
		t.Error("expected wide-area traffic")
	}
}

func TestPublicAPIConstants(t *testing.T) {
	if len(twolayer.CollectiveOps) != 14 {
		t.Errorf("%d collective ops", len(twolayer.CollectiveOps))
	}
	if len(twolayer.Apps()) != 6 {
		t.Errorf("%d applications", len(twolayer.Apps()))
	}
	if len(twolayer.PaperBandwidths) != 6 || len(twolayer.PaperLatencies) != 7 {
		t.Error("sweep axes wrong")
	}
	if twolayer.Second != 1000*twolayer.Millisecond {
		t.Error("time units wrong")
	}
	lg, bg := twolayer.DefaultParams().WithWAN(20*twolayer.Millisecond, 0.5e6).Gap()
	if lg != 1000 || bg != 100 {
		t.Errorf("gap = %v, %v", lg, bg)
	}
}

func TestTableRendering(t *testing.T) {
	rows, err := twolayer.Table1(twolayer.TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if s := twolayer.RenderTable1(rows); len(s) == 0 {
		t.Error("empty Table 1")
	}
	if s := twolayer.RenderTable2(); len(s) == 0 {
		t.Error("empty Table 2")
	}
}

func TestPublicAPIHarnessSurface(t *testing.T) {
	// Exercise the re-exported harness entry points end-to-end at tiny
	// scale: microbenchmarks, MPI kernels, shapes.
	topo := twolayer.DAS()
	params := twolayer.DefaultParams().WithWAN(3300*twolayer.Microsecond, 1e6)

	micro, err := twolayer.MicroMeasure(topo, params, 2, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(micro) != len(twolayer.MicroPatterns()) {
		t.Errorf("%d micro results", len(micro))
	}
	if s := twolayer.RenderMicro(micro); len(s) == 0 {
		t.Error("empty micro render")
	}

	kr, err := twolayer.MPIKernelComparison(topo, params)
	if err != nil {
		t.Fatal(err)
	}
	if s := twolayer.RenderKernels(kr); len(s) == 0 {
		t.Error("empty kernel render")
	}

	sr, err := twolayer.ClusterShapeStudy(twolayer.TinyScale, []string{"TSP"},
		3300*twolayer.Microsecond, 1e6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := twolayer.RenderShapes(sr); len(s) == 0 {
		t.Error("empty shapes render")
	}
}

func TestPublicAPIOrcaAndDSM(t *testing.T) {
	topo, err := twolayer.Uniform(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var orcaSum, dsmSum float64
	_, err = twolayer.Run(topo, twolayer.DefaultParams(), 3, func(e *twolayer.Env) {
		rt := twolayer.NewOrca(e, nil)
		h := rt.Declare("x", twolayer.OrcaReplicated, 0,
			func() twolayer.OrcaState { s := 0.0; return &s },
			map[string]twolayer.OrcaOp{
				"add": func(s twolayer.OrcaState, arg any) any {
					*(s.(*float64)) += arg.(float64)
					return *(s.(*float64))
				},
				"get": func(s twolayer.OrcaState, _ any) any { return *(s.(*float64)) },
			})
		h.Write("add", 1.5)
		rt.Fence()
		if e.Rank() == 0 {
			orcaSum = h.Read("get", nil).(float64)
		}
		rt.Shutdown()

		d := twolayer.NewSharedMemory(e, 8, 4)
		d.Write(e.Rank(), float64(e.Rank()+1))
		d.Barrier()
		if e.Rank() == 0 {
			for i := 0; i < 4; i++ {
				dsmSum += d.Read(i)
			}
		}
		d.Barrier()
		d.Shutdown()
	})
	if err != nil {
		t.Fatal(err)
	}
	if orcaSum != 6 {
		t.Errorf("orca sum = %v, want 6", orcaSum)
	}
	if dsmSum != 10 {
		t.Errorf("dsm sum = %v, want 10", dsmSum)
	}
}

package par

import (
	"testing"

	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
)

func TestRunWithDefaults(t *testing.T) {
	res, err := RunWith(topology.MustUniform(2, 2), Options{Seed: 1}, func(e *Env) {
		e.Compute(sim.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != sim.Millisecond {
		t.Errorf("elapsed %v", res.Elapsed)
	}
}

func TestRunWithTrace(t *testing.T) {
	topo := topology.DAS()
	tr := trace.NewCollector(topo.Procs())
	_, err := RunWith(topo, Options{Params: network.DefaultParams(), Seed: 1, Trace: tr},
		func(e *Env) {
			e.Compute(sim.Time(e.Rank()+1) * 100 * sim.Microsecond)
			next := (e.Rank() + 1) % e.Size()
			e.Send(next, 1, nil, 1000)
			e.Recv(1)
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Messages) != 32 {
		t.Errorf("%d messages traced, want 32", len(tr.Messages))
	}
	if len(tr.Spans) != 32 {
		t.Errorf("%d spans traced, want 32", len(tr.Spans))
	}
	s := tr.Summarize()
	// Ranks 7->8, 15->16, 23->24, 31->0 cross clusters.
	if s.WANMessages != 4 {
		t.Errorf("WAN messages = %d, want 4", s.WANMessages)
	}
	m := tr.CommMatrix()
	if m[0][1] != 1000 {
		t.Errorf("matrix[0][1] = %d", m[0][1])
	}
}

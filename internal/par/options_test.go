package par

import (
	"math"
	"strings"
	"testing"

	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
)

func TestRunWithDefaults(t *testing.T) {
	res, err := RunWith(topology.MustUniform(2, 2), Options{}, func(e *Env) {
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
	tr := trace.NewStream(topo.Procs())
	_, err := RunWith(topo, Options{Params: network.DefaultParams(), Trace: tr},
		func(e *Env) {
			e.Compute(sim.Time(e.Rank()+1) * 100 * sim.Microsecond)
			next := (e.Rank() + 1) % e.Size()
			e.Send(next, 1, nil, 1000)
			e.Recv(1)
		})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Summarize()
	if s.Messages != 32 {
		t.Errorf("%d messages traced, want 32", s.Messages)
	}
	// Every rank's one compute span is traced: over a 100us horizon rank r
	// computed for exactly r+1 horizons.
	for r, u := range tr.Utilization(100 * sim.Microsecond) {
		if u != float64(r+1) {
			t.Errorf("rank %d utilization %g, want %d (span missing?)", r, u, r+1)
		}
	}
	// Ranks 7->8, 15->16, 23->24, 31->0 cross clusters.
	if s.WANMessages != 4 {
		t.Errorf("WAN messages = %d, want 4", s.WANMessages)
	}
	m := tr.CommMatrix()
	if m[0][1] != 1000 {
		t.Errorf("matrix[0][1] = %d", m[0][1])
	}
}

// TestRunRejectsInvalidWANSpeed: a negative wide-area latency or a zero,
// negative or NaN bandwidth fails the run up front with an error instead
// of panicking in the scheduler or running at a meaningless speed.
func TestRunRejectsInvalidWANSpeed(t *testing.T) {
	for _, tc := range []struct {
		name      string
		latency   sim.Time
		bandwidth float64
	}{
		{"negative latency", -sim.Millisecond, 1e6},
		{"zero bandwidth", sim.Millisecond, 0},
		{"negative bandwidth", sim.Millisecond, -1e6},
		{"NaN bandwidth", sim.Millisecond, math.NaN()},
		{"negative latency and NaN bandwidth", -1, math.NaN()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := network.DefaultParams().WithWAN(tc.latency, tc.bandwidth)
			job := func(e *Env) {
				if e.Rank() == 0 {
					e.Send(e.Size()-1, 1, nil, 1000)
				}
				if e.Rank() == e.Size()-1 {
					e.Recv(1)
				}
			}
			_, err := RunWith(topology.MustUniform(2, 2), Options{Params: params}, job)
			if err == nil || !strings.Contains(err.Error(), "invalid wide-area speed") {
				t.Errorf("RunWith: err = %v, want an invalid wide-area speed error", err)
			}
			if _, err := Run(topology.MustUniform(2, 2), params, 1, job); err == nil {
				t.Error("Run accepted the invalid speed")
			}
		})
	}
}

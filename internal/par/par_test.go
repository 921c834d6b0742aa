package par

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/wantopo"
)

func run(t *testing.T, topo *topology.Topology, job Job) Result {
	t.Helper()
	res, err := Run(topo, network.DefaultParams(), 42, job)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// randomJob builds a deterministic synthetic workload from a seed: rounds
// of jittered compute followed by a shifting-ring exchange, the
// send/recv/compute mix the paper applications reduce to. Every rank runs
// the same program, so the job is deadlock-free by construction, and all
// randomness comes from the per-trial rand stream captured at build time —
// the job itself is a pure function of (seed, rank).
func randomJob(seed int64, rounds int) Job {
	return func(e *Env) {
		rng := rand.New(rand.NewSource(seed + int64(e.Rank())))
		for r := 0; r < rounds; r++ {
			e.Compute(sim.Time(rng.Intn(50)+1) * sim.Microsecond)
			stride := r%(e.Size()-1) + 1
			dst := (e.Rank() + stride) % e.Size()
			bytes := int64(rng.Intn(4096) + 16)
			e.Send(dst, Tag(r), r, bytes)
			m := e.Recv(Tag(r))
			if m.Data.(int) != r {
				panic(fmt.Sprintf("rank %d round %d: got %v", e.Rank(), r, m.Data))
			}
		}
	}
}

// TestEnvelopePoolDrains: every message's pooled envelope comes back to the
// run's free list — through the delivery of each scheduled copy, and at
// once for a drop — under drops, duplicates, reorder jitter and outages, on
// the clique and a multi-hop graph, and under a reliable-transport regime.
// runSim reports a pool with slots off its free list (a leak, or a cycle
// from a double free) as a run error, so every run in the package holds to
// this; these configurations make sure the drop and duplicate paths are
// taken.
func TestEnvelopePoolDrains(t *testing.T) {
	topo := topology.MustUniform(4, 3)
	torus, err := wantopo.Parse("torus2", topo.Clusters())
	if err != nil {
		t.Fatal(err)
	}
	params := network.DefaultParams().WithWAN(2*sim.Millisecond, 1e6)
	fp := faults.Params{
		DropRate: 0.05, DupRate: 0.05, ReorderJitter: 2 * sim.Millisecond,
		OutagePeriod: 50 * sim.Millisecond, OutageDuration: 2 * sim.Millisecond, Seed: 9,
	}
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"faults", Options{Faults: fp}},
		{"torus2+faults", Options{WAN: torus, Faults: fp}},
		{"torus2+rel", Options{WAN: torus, Regime: regime.Params{Spec: "diurnal:40ms:8+churn:60ms:15ms+rel", Seed: 5}}},
	} {
		opts := c.opts
		opts.Params = params
		res, err := RunWith(topo, opts, randomJob(17, 30))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.opts.Faults.Enabled() && (res.Faults.Dropped == 0 || res.Faults.Duplicated == 0) {
			t.Errorf("%s: no drop or no duplicate exercised: %+v", c.name, res.Faults)
		}
		if res.Faults.Dropped+res.Faults.OutageDropped == 0 {
			t.Errorf("%s: no message was lost", c.name)
		}
	}
}

func TestEnvIdentity(t *testing.T) {
	topo := topology.DAS()
	seenCluster := make([]int, topo.Procs())
	run(t, topo, func(e *Env) {
		if e.Size() != 32 || e.Clusters() != 4 {
			t.Errorf("size/clusters wrong at rank %d", e.Rank())
		}
		seenCluster[e.Rank()] = e.Cluster()
		if e.Coordinator(e.Cluster()) != e.Cluster()*8 {
			t.Errorf("coordinator of cluster %d = %d", e.Cluster(), e.Coordinator(e.Cluster()))
		}
		if got := len(e.ClusterPeers()); got != 8 {
			t.Errorf("peers = %d", got)
		}
	})
	for r, c := range seenCluster {
		if c != r/8 {
			t.Errorf("rank %d cluster %d", r, c)
		}
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	var got Msg
	run(t, topology.MustUniform(1, 2), func(e *Env) {
		if e.Rank() == 0 {
			e.Send(1, 7, "hello", 100)
		} else {
			got = e.Recv(7)
		}
	})
	if got.From != 0 || got.Tag != 7 || got.Data.(string) != "hello" || got.Bytes != 100 {
		t.Errorf("got %+v", got)
	}
}

func TestSelectiveReceiveByTagAndSender(t *testing.T) {
	order := []Tag{}
	run(t, topology.MustUniform(1, 3), func(e *Env) {
		switch e.Rank() {
		case 0:
			e.Send(2, 1, "a", 10)
		case 1:
			e.Send(2, 2, "b", 10)
		case 2:
			// Receive tag 2 first even though tag 1 likely arrives first.
			m2 := e.Recv(2)
			m1 := e.RecvFrom(0, 1)
			order = append(order, m2.Tag, m1.Tag)
		}
	})
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("order %v", order)
	}
}

func TestTryRecvAndPending(t *testing.T) {
	run(t, topology.MustUniform(1, 2), func(e *Env) {
		if e.Rank() == 0 {
			e.Send(1, 5, 123, 10)
			return
		}
		if _, ok := e.TryRecv(AnySender, 5); ok {
			t.Error("TryRecv before arrival should fail")
		}
		e.Compute(sim.Millisecond) // let the message arrive
		if e.Pending() != 1 {
			t.Errorf("pending = %d", e.Pending())
		}
		m, ok := e.TryRecv(0, 5)
		if !ok || m.Data.(int) != 123 {
			t.Errorf("TryRecv = %+v %v", m, ok)
		}
	})
}

func TestRPC(t *testing.T) {
	run(t, topology.DAS(), func(e *Env) {
		const serverRank = 0
		const reqTag = 3
		if e.Rank() == serverRank {
			// Serve one request per other rank.
			for i := 1; i < e.Size(); i++ {
				m := e.Recv(reqTag)
				req := m.Data.(Request)
				e.Reply(req, req.Data.(int)*2, 8)
			}
			return
		}
		reply := e.Call(serverRank, reqTag, e.Rank(), 8)
		if reply.Data.(int) != e.Rank()*2 {
			t.Errorf("rank %d got %v", e.Rank(), reply.Data)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13, 32} {
		topo := topology.SingleCluster(n)
		before := make([]sim.Time, n)
		after := make([]sim.Time, n)
		run(t, topo, func(e *Env) {
			// Stagger arrival times.
			e.Compute(sim.Time(e.Rank()) * sim.Millisecond)
			before[e.Rank()] = e.Now()
			e.Barrier()
			after[e.Rank()] = e.Now()
		})
		var maxBefore sim.Time
		for _, b := range before {
			if b > maxBefore {
				maxBefore = b
			}
		}
		for r, a := range after {
			if a < maxBefore {
				t.Errorf("n=%d rank %d left the barrier at %v before last arrival %v", n, r, a, maxBefore)
			}
		}
	}
}

func TestBarrierRepeatable(t *testing.T) {
	// Multiple consecutive barriers must not deadlock or cross-talk.
	counts := make([]int, 8)
	run(t, topology.MustUniform(2, 4), func(e *Env) {
		for i := 0; i < 5; i++ {
			e.Compute(sim.Time(e.Rank()%3) * 100 * sim.Microsecond)
			e.Barrier()
			counts[e.Rank()]++
		}
	})
	for r, c := range counts {
		if c != 5 {
			t.Errorf("rank %d completed %d barriers", r, c)
		}
	}
}

func TestDeadlockReported(t *testing.T) {
	_, err := Run(topology.MustUniform(1, 2), network.DefaultParams(), 1, func(e *Env) {
		if e.Rank() == 0 {
			e.Recv(99) // nobody sends
		}
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestDeterminism(t *testing.T) {
	job := func(e *Env) {
		rng := rand.New(rand.NewSource(7 + int64(e.Rank())*7919))
		for i := 0; i < 3; i++ {
			next := (e.Rank() + 1) % e.Size()
			prev := (e.Rank() + e.Size() - 1) % e.Size()
			e.Send(next, 1, e.Rank(), int64(rng.Intn(1000)+1))
			e.RecvFrom(prev, 1)
			e.Compute(sim.Time(rng.Intn(100)) * sim.Microsecond)
		}
	}
	r1, err := Run(topology.DAS(), network.DefaultParams(), 7, job)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r2, err := Run(topology.DAS(), network.DefaultParams(), 7, job)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Elapsed != r2.Elapsed || r1.WAN != r2.WAN || r1.Events != r2.Events {
			t.Fatalf("non-deterministic: %+v vs %+v", r1, r2)
		}
	}
}

func TestResultAccounting(t *testing.T) {
	res := run(t, topology.MustUniform(2, 2), func(e *Env) {
		e.Compute(sim.Time(e.Rank()+1) * sim.Millisecond)
		if e.Rank() == 0 {
			e.Send(2, 1, nil, 1000) // inter-cluster
		}
		if e.Rank() == 2 {
			e.Recv(1)
		}
	})
	if res.WAN.Messages != 1 || res.WAN.Bytes != 1000 {
		t.Errorf("WAN = %+v", res.WAN)
	}
	if res.ClusterWANOut[0].Bytes != 1000 || res.ClusterWANOut[1].Bytes != 0 {
		t.Errorf("per-cluster WAN = %+v", res.ClusterWANOut)
	}
	if res.Elapsed < 4*sim.Millisecond {
		t.Errorf("elapsed = %v", res.Elapsed)
	}
	if res.Speedup(8*sim.Millisecond) <= 0 {
		t.Error("speedup should be positive")
	}
}

// Property: messages between a fixed pair with a fixed tag arrive in send
// order regardless of sizes (runtime-level FIFO).
func TestRuntimeFIFOProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 10 {
			return true
		}
		ok := true
		_, err := Run(topology.DAS(), network.DefaultParams(), 3, func(e *Env) {
			if e.Rank() == 0 {
				for i, s := range sizes {
					e.Send(9, 4, i, int64(s)+1)
				}
			}
			if e.Rank() == 9 {
				for i := range sizes {
					m := e.Recv(4)
					if m.Data.(int) != i {
						ok = false
					}
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBarrier32(b *testing.B) {
	_, err := Run(topology.DAS(), network.DefaultParams(), 1, func(e *Env) {
		for i := 0; i < b.N; i++ {
			e.Barrier()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRingExchange(b *testing.B) {
	_, err := Run(topology.DAS(), network.DefaultParams(), 1, func(e *Env) {
		for i := 0; i < b.N; i++ {
			e.Send((e.Rank()+1)%e.Size(), 1, nil, 4096)
			e.Recv(1)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

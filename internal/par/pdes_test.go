package par

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/wantopo"
)

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

// TestRandomizedParallelDifferential drives random topologies, wide-area
// speeds and fault plans through the sequential engine and the
// cluster-parallel one at several worker counts, requiring bit-identical
// results every time — the same differential contract the ladder queue is
// held to against the reference heap, applied to the whole PDES stack.
func TestRandomizedParallelDifferential(t *testing.T) {
	master := rand.New(rand.NewSource(20260809))
	trials := 20
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		clusters := master.Intn(4) + 2
		perCluster := master.Intn(5) + 2
		topo, err := topology.Uniform(clusters, perCluster)
		if err != nil {
			t.Fatal(err)
		}
		params := network.DefaultParams().WithWAN(
			sim.Time(master.Intn(20000)+200)*sim.Microsecond,
			float64(master.Intn(90)+10)*1e5)
		var fp faults.Params
		if master.Intn(2) == 1 {
			fp = faults.Params{
				DropRate: float64(master.Intn(5)) / 100,
				DupRate:  float64(master.Intn(3)) / 100,
				Seed:     master.Int63(),
			}
			if master.Intn(2) == 1 {
				fp.ReorderJitter = sim.Time(master.Intn(3)) * sim.Millisecond
			}
			if master.Intn(3) == 0 {
				fp.OutagePeriod = 50 * sim.Millisecond
				fp.OutageDuration = 2 * sim.Millisecond
			}
		}
		jobSeed := master.Int63()
		rounds := master.Intn(12) + 3
		name := fmt.Sprintf("trial%02d_%dx%d", trial, clusters, perCluster)

		runAt := func(workers int) Result {
			res, err := RunWith(topo, Options{
				Params: params, Seed: 42, Faults: fp, Workers: workers,
			}, randomJob(jobSeed, rounds))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			return res
		}
		want := runAt(0) // sequential engine
		for _, w := range []int{1, 3} {
			got := runAt(w)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: workers=%d diverges from sequential:\nseq: %+v\npar: %+v",
					name, w, want, got)
			}
		}
	}
}

// TestEnvelopePoolDrains: every message's pooled envelope comes back to its
// shard's free list — through the delivery of each scheduled copy, at once
// for a drop, and through adoption by the destination LP when it crosses a
// window barrier — under drops, duplicates, reorder jitter and outages, on
// the sequential engine, the windowed one at 1 and 3 workers, and a
// reliable-transport regime on a multi-hop graph. runSim reports a pool
// with slots off its free list (a leak, or a cycle from a double free) as a
// run error, so every run in the package holds to this; these configurations
// make sure the drop and duplicate paths are taken.
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
		var want Result
		for i, w := range []int{0, 1, 3} {
			opts := c.opts
			opts.Params, opts.Seed, opts.Workers = params, 42, w
			res, err := RunWith(topo, opts, randomJob(17, 30))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, w, err)
			}
			if i == 0 {
				want = res
				if c.opts.Faults.Enabled() && (res.Faults.Dropped == 0 || res.Faults.Duplicated == 0) {
					t.Errorf("%s: no drop or no duplicate exercised: %+v", c.name, res.Faults)
				}
				if res.Faults.Dropped+res.Faults.OutageDropped == 0 {
					t.Errorf("%s: no message was lost", c.name)
				}
			} else if !reflect.DeepEqual(want, res) {
				t.Errorf("%s: workers=%d diverges from workers=0", c.name, w)
			}
		}
	}
}

// TestParallelZeroLatencyWANFallsBack pins the sequential fallback for
// configurations with no exploitable lookahead: a zero-latency,
// zero-overhead wide area gives the conservative protocol no window (see
// DESIGN.md §5g), so Workers must be ignored rather than deadlock or
// diverge.
func TestParallelZeroLatencyWANFallsBack(t *testing.T) {
	params := network.DefaultParams()
	params.SendOverhead, params.RecvOverhead = 0, 0
	params.IntraLatency, params.WANLatency, params.WANPerMessage = 0, 0, 0
	if params.WANLookahead() > 0 {
		t.Fatalf("config still has lookahead %v", params.WANLookahead())
	}
	topo := topology.MustUniform(2, 2)
	var want Result
	for i, w := range []int{0, 4} {
		res, err := RunWith(topo, Options{Params: params, Seed: 42, Workers: w},
			randomJob(7, 4))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if i == 0 {
			want = res
		} else if !reflect.DeepEqual(want, res) {
			t.Errorf("workers=%d diverges under zero-lookahead fallback", w)
		}
	}
}

// TestParallelWallClockSmoke pins that the parallel engine actually runs
// multi-windowed (not one giant window): a run with wide-area traffic must
// cross several barriers, which shows up as identical results while the
// kernel count and exchange mechanics differ from sequential.
func TestParallelWallClockSmoke(t *testing.T) {
	topo := topology.MustUniform(3, 3)
	start := time.Now()
	res, err := RunWith(topo, Options{
		Params: network.DefaultParams(), Seed: 42, Workers: 2,
	}, randomJob(99, 20))
	if err != nil {
		t.Fatal(err)
	}
	if res.WAN.Messages == 0 {
		t.Fatal("job produced no wide-area traffic; differential is vacuous")
	}
	if time.Since(start) > 30*time.Second {
		t.Fatalf("parallel smoke took %v", time.Since(start))
	}
}

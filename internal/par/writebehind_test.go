package par

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
)

// wbProgram is a randomized SPMD program for the write-behind differential:
// phases of computation, fan-outs with counted collects, pairwise RPCs,
// neighbour bursts, barriers and clock reads, every choice a pure function
// of (seed, phase, rank) so each rank can work out what the others send it.
//
// It runs two ways through the same public API. Lazy is the program as
// written: outputs are deferred and collects use RecvN. Eager reads the
// clock after every output — an input, so the rank parks until the output
// has run, which is the blocking Send/Compute of the old runtime — and
// collects with one receive per message. The two must be indistinguishable.
type wbProgram struct {
	seed   int64
	phases int
	eager  bool
	// sums[rank] folds every payload the rank received, order-sensitively,
	// with the clock readings of its observe phases mixed in.
	sums []uint64
	// finish[rank] is the rank's clock once its last output has run.
	finish []sim.Time
}

func (w *wbProgram) rng(phase, rank int) *rand.Rand {
	return rand.New(rand.NewSource(w.seed + int64(phase)*1_000_003 + int64(rank)*7919))
}

// fanout lists the destinations of rank's sends in a fan-out phase; it may
// name the rank itself and repeat destinations.
func (w *wbProgram) fanout(phase, rank, n int) []int {
	r := w.rng(phase, rank)
	dsts := make([]int, r.Intn(n+2))
	for i := range dsts {
		dsts[i] = r.Intn(n)
	}
	return dsts
}

func (w *wbProgram) job() Job {
	return func(e *Env) {
		n, me := e.Size(), e.Rank()
		sum := uint64(me)
		fold := func(v uint64) { sum = sum*1099511628211 + v }
		absorb := func(m Msg) { fold(uint64(m.Data.(int))<<8 | uint64(m.From)) }
		send := func(dst int, tag Tag, v int, bytes int64) {
			e.Send(dst, tag, v, bytes)
			if w.eager {
				e.Now()
			}
		}
		compute := func(d sim.Time) {
			e.Compute(d)
			if w.eager {
				e.Now()
			}
		}
		collect := func(from int, tag Tag, count int) {
			if w.eager {
				for ; count > 0; count-- {
					absorb(e.RecvFrom(from, tag))
				}
				return
			}
			e.RecvN(from, tag, count, absorb)
		}
		shape := rand.New(rand.NewSource(w.seed)) // same stream on every rank
		for ph := 0; ph < w.phases; ph++ {
			tag := Tag(ph)
			mine := w.rng(ph, me)
			switch kind := shape.Intn(6); kind {
			case 0: // computation, sometimes of zero length
				compute(sim.Time(mine.Intn(3)*mine.Intn(40)) * sim.Microsecond)
			case 1: // fan-out, computation between some sends, counted collect
				for i, d := range w.fanout(ph, me, n) {
					send(d, tag, ph*131+i, int64(mine.Intn(2048)+16))
					if mine.Intn(3) == 0 {
						compute(sim.Time(mine.Intn(20)) * sim.Microsecond)
					}
				}
				incoming := 0
				for s := 0; s < n; s++ {
					for _, d := range w.fanout(ph, s, n) {
						if d == me {
							incoming++
						}
					}
				}
				collect(AnySender, tag, incoming)
			case 2: // RPC between the ranks of a pair, both directions
				peer := me ^ 1
				if peer >= n {
					break
				}
				serve := func() {
					m := e.RecvFrom(peer, tag)
					req := m.Data.(Request)
					fold(uint64(req.Data.(int)))
					e.Reply(req, ph, 64)
					if w.eager {
						e.Now()
					}
				}
				call := func() { absorb(e.Call(peer, tag, ph*7+me, 128)) }
				if me&1 == 0 {
					call()
					serve()
				} else {
					serve()
					call()
				}
			case 3:
				e.Barrier()
			case 4: // burst to the right neighbour, counted collect from the left
				burst := shape.Intn(4) + 1
				for i := 0; i < burst; i++ {
					send((me+1)%n, tag, i, 512)
				}
				collect((me+n-1)%n, tag, burst)
			case 5: // observe: every input the Env has
				fold(uint64(e.Now()))
				fold(uint64(e.Pending()))
				if _, ok := e.TryRecv(AnySender, Tag(1<<20)); ok {
					panic("message on an unused tag")
				}
			}
		}
		w.sums[me] = sum
		w.finish[me] = e.Now()
	}
}

// wbOutcome is everything a run exposes: the Result, what the ranks saw
// and when each finished.
type wbOutcome struct {
	Res    Result
	Sums   []uint64
	Finish []sim.Time
}

func runWB(t *testing.T, topo *topology.Topology, opts Options, seed int64, phases int, eager bool) wbOutcome {
	t.Helper()
	w := &wbProgram{seed: seed, phases: phases, eager: eager,
		sums: make([]uint64, topo.Procs()), finish: make([]sim.Time, topo.Procs())}
	res, err := RunWith(topo, opts, w.job())
	if err != nil {
		t.Fatalf("eager=%v: %v", eager, err)
	}
	return wbOutcome{res, w.sums, w.finish}
}

// TestWriteBehindDifferential is the write-behind contract as a property:
// deferring a rank's outputs and batching its receives changes nothing a
// run can report. Random programs run eagerly and lazily on clean
// networks, under fault injection and under a regime (both through the
// reliable transport), with and without send overhead; every Result field —
// Elapsed, Events, WAN/Intra traffic, Transport, Faults — every rank's
// finish time and every rank's view of its messages must be equal.
func TestWriteBehindDifferential(t *testing.T) {
	master := rand.New(rand.NewSource(20261003))
	trials := 24
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		topo, err := topology.Uniform(master.Intn(3)+2, master.Intn(4)+1)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Seed: 42, Params: network.DefaultParams().WithWAN(
			sim.Time(master.Intn(5000)+200)*sim.Microsecond, float64(master.Intn(90)+10)*1e5)}
		if master.Intn(4) == 0 {
			opts.Params.SendOverhead = 0
		}
		switch trial % 3 {
		case 1:
			opts.Faults = faults.Params{DropRate: 0.03, DupRate: 0.01, Seed: master.Int63()}
		case 2:
			opts.Regime = regime.Params{Spec: "diurnal:40ms:8+churn:60ms:15ms+rel", Seed: master.Int63()}
			opts.Adaptive = master.Intn(2) == 1
		}
		seed, phases := master.Int63(), master.Intn(30)+10
		name := fmt.Sprintf("trial%02d_%dx%d", trial, topo.Clusters(), topo.Procs()/topo.Clusters())

		want := runWB(t, topo, opts, seed, phases, true)
		if want.Res.Intra.Messages+want.Res.WAN.Messages == 0 {
			t.Fatalf("%s: program sent nothing; the differential is vacuous", name)
		}
		if got := runWB(t, topo, opts, seed, phases, false); !reflect.DeepEqual(want, got) {
			t.Errorf("%s: the lazy run diverges from the eager one:\neager %+v\nlazy  %+v",
				name, want, got)
		}
	}
}

// callLog is an OpSink that writes down every call it receives, in order.
type callLog struct{ calls []string }

func (c *callLog) RecordMessage(m trace.Message) {
	c.calls = append(c.calls, fmt.Sprintf("msg %d->%d %dB sent %v delivered %v", m.Src, m.Dst, m.Bytes, m.Sent, m.Delivered))
}
func (c *callLog) RecordSpan(s trace.Span) {
	c.calls = append(c.calls, fmt.Sprintf("span rank %d %v-%v", s.Rank, s.Start, s.End))
}
func (c *callLog) RecordTransport(trace.TransportStats) {}
func (c *callLog) RecordRecv(rank int, msg int64, from int, tag int64, poll bool) {
	c.calls = append(c.calls, fmt.Sprintf("recv rank %d msg %d from %d tag %d poll %v", rank, msg, from, tag, poll))
}
func (c *callLog) RecordSendTag(tag int64) {
	c.calls = append(c.calls, fmt.Sprintf("sendtag %d", tag))
}

// sinkOnly hides the OpSink methods, leaving a plain trace.Sink.
type sinkOnly struct{ trace.Sink }

// TestWriteBehindTraceOrder: tracing and op-level recording see the same
// calls in the same order whether outputs are deferred or not. A compute
// span is emitted by the continuation at the span's end, where the blocked
// rank used to emit it; under an OpSink RecvN reports each message as it
// hands it over, so the recorded graph is the one n receives produce.
func TestWriteBehindTraceOrder(t *testing.T) {
	topo := topology.MustUniform(2, 3)
	for _, ops := range []bool{false, true} {
		var logs [2][]string
		for i, eager := range []bool{true, false} {
			log := &callLog{}
			opts := Options{Seed: 42, Params: network.DefaultParams(), Trace: sinkOnly{log}}
			if ops {
				opts.Trace = log
			}
			runWB(t, topo, opts, 11, 40, eager)
			logs[i] = log.calls
		}
		if len(logs[0]) < 100 {
			t.Fatalf("ops=%v: only %d calls traced", ops, len(logs[0]))
		}
		for i := range max(len(logs[0]), len(logs[1])) {
			if i >= len(logs[0]) || i >= len(logs[1]) {
				t.Fatalf("ops=%v: eager run traced %d calls, lazy run %d", ops, len(logs[0]), len(logs[1]))
			}
			if logs[0][i] != logs[1][i] {
				t.Fatalf("ops=%v: call %d differs:\neager %s\nlazy  %s", ops, i, logs[0][i], logs[1][i])
			}
		}
	}
}

// TestSwitchAccounting pins the coroutine-switch cost of a 4x8 all-to-all
// round — 31 sends and a counted receive of 31 per rank. The fan-out runs
// as continuations and the collect wakes the rank once, so a round costs a
// rank at most two switches (it was at least 32: one per send overhead that
// another rank's event interrupted, one per arriving message). The counts
// are exact, so a change that brings wake-ups back fails here, not in a
// noisy benchmark.
func TestSwitchAccounting(t *testing.T) {
	const rounds = 5
	topo := topology.DAS()
	n := uint64(topo.Procs())
	counts := func(rounds int) (switches, selfWakes, events uint64) {
		var k *sim.Kernel
		res, err := Run(topo, network.DefaultParams(), 42, func(e *Env) {
			k = e.rt.k
			got := 0
			for r := 0; r < rounds; r++ {
				for i := 1; i < e.Size(); i++ {
					e.Send((e.Rank()+i)%e.Size(), Tag(r), nil, 256)
				}
				e.RecvN(AnySender, Tag(r), e.Size()-1, func(Msg) { got++ })
			}
			if got != rounds*(e.Size()-1) {
				t.Errorf("rank %d absorbed %d messages", e.Rank(), got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return k.Switches(), k.SelfWakes(), res.Events
	}
	sw0, self0, ev0 := counts(0)
	sw, self, ev := counts(rounds)
	if sw0 != n || self0 != 0 {
		t.Errorf("empty job: %d switches, %d self-wakes; want one start per rank", sw0, self0)
	}
	perRankRound := float64(sw+self-sw0) / float64(n*rounds)
	t.Logf("%d rounds: %d switches + %d self-wakes for %d events (%.2f wake-ups per rank per round)",
		rounds, sw-sw0, self, ev-ev0, perRankRound)
	if sw+self-sw0 > 2*n*rounds {
		t.Errorf("%.2f wake-ups per rank per round, want <= 2", perRankRound)
	}
	// Exact and machine-independent: the same program gives the same counts.
	if sw2, self2, _ := counts(rounds); sw2 != sw || self2 != self {
		t.Errorf("second run: %d switches, %d self-wakes; first %d, %d", sw2, self2, sw, self)
	}
}

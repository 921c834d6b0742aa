package par

import (
	goruntime "runtime"
	"testing"

	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

// allocPingPong returns a run of n request/reply cycles between two ranks
// on topo. Payloads are nil so the measurement isolates the runtime's own
// send/deliver/receive path from caller-side boxing.
func allocPingPong(t *testing.T, topo func() *topology.Topology, opts Options) func(n int) {
	job := func(n int) Job {
		return func(e *Env) {
			peer := 1 - e.Rank()
			if e.Rank() == 0 {
				for i := 0; i < n; i++ {
					e.Send(peer, 1, nil, 1024)
					e.RecvFrom(peer, 2)
				}
			} else {
				for i := 0; i < n; i++ {
					e.RecvFrom(peer, 1)
					e.Send(peer, 2, nil, 1024)
				}
			}
		}
	}
	return func(n int) {
		if _, err := RunWith(topo(), opts, job(n)); err != nil {
			t.Error(err)
		}
	}
}

// marginalAllocs measures the per-cycle allocation cost of the steady
// state: the total allocations of a run with base+extra cycles minus one
// with base cycles, divided by extra. Setup costs (kernel, envs, slab and
// pool growth to peak depth) cancel out exactly, leaving only what each
// additional cycle allocates.
func marginalAllocs(run func(cycles int), base, extra int) float64 {
	small := testing.AllocsPerRun(3, func() { run(base) })
	large := testing.AllocsPerRun(3, func() { run(base + extra) })
	return (large - small) / float64(extra)
}

// TestLANSendRecvZeroAllocs pins the tentpole contract: a steady-state
// intra-cluster send→deliver→receive cycle performs zero heap allocations.
// Any regression here (a new closure on the delivery path, a mailbox that
// stops recycling, an event queue that re-allocates) fails this test.
func TestLANSendRecvZeroAllocs(t *testing.T) {
	per := marginalAllocs(allocPingPong(t, func() *topology.Topology { return topology.SingleCluster(2) },
		Options{Params: network.DefaultParams()}), 2048, 2048)
	if per > 0.01 {
		t.Errorf("steady-state LAN send+recv allocates %.4f allocs/cycle, want 0", per)
	}
}

// TestFanoutRecvNZeroAllocs extends the contract to the write-behind path:
// on the 4x8 machine every rank sends to the 31 others — 30 of the sends
// queue behind the first as deferred ops — and collects the 31 it is sent
// with one counted receive. Once the op slab, the mailboxes and the event
// queue have seen one round, further rounds allocate nothing on any rank.
//
// The counter is read inside the run, after a warm-up, not by differencing
// two runs: how much of its slabs a run inherits from the pool is not
// repeatable (a GC empties it; under -race it drops entries at random).
// Every round starts on a multiple of the kernel's calendar-ring period,
// so each one puts the same events into the same buckets and the queue's
// own growth is over after the first.
func TestFanoutRecvNZeroAllocs(t *testing.T) {
	const warm, window, windows = 4, 32, 3
	const lap = sim.Time(256 << 14) // one revolution of the calendar ring (sim/queue.go)
	var marks [windows + 1]goruntime.MemStats
	_, err := Run(topology.DAS(), network.DefaultParams(), 1, func(e *Env) {
		absorb := func(Msg) {}
		for r := 0; r <= warm+window*windows; r++ {
			if w := r - warm; e.Rank() == 0 && w >= 0 && w%window == 0 {
				goruntime.ReadMemStats(&marks[w/window])
			}
			for i := 1; i < e.Size(); i++ {
				e.Send((e.Rank()+i)%e.Size(), Tag(r), nil, 256)
			}
			e.RecvN(AnySender, Tag(r), e.Size()-1, absorb)
			e.Compute(lap - e.Now()%lap)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// A per-round allocation shows in every window; a stray one from the
	// test binary's other goroutines (seen under -race) in at most one.
	least := ^uint64(0)
	for i := 0; i < windows; i++ {
		least = min(least, marks[i+1].Mallocs-marks[i].Mallocs)
	}
	if least != 0 {
		t.Errorf("every window of %d steady-state fan-out + RecvN rounds allocated, the best %d times; want 0", window, least)
	}
}

// TestWANSendRecvZeroAllocs extends the contract to the fault-free
// wide-area path: gateway and WAN-link routing must not allocate either.
func TestWANSendRecvZeroAllocs(t *testing.T) {
	topo := func() *topology.Topology {
		tp, err := topology.Uniform(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	per := marginalAllocs(allocPingPong(t, topo, Options{Params: network.DefaultParams()}), 512, 512)
	if per > 0.01 {
		t.Errorf("steady-state WAN send+recv allocates %.4f allocs/cycle, want 0", per)
	}
}

// TestWANReliableSendRecvZeroAllocs extends the contract to the reliable
// transport on a fault-free network: frames and acks ride pooled envelopes
// like every other message, so the go-back-N path allocates nothing either.
func TestWANReliableSendRecvZeroAllocs(t *testing.T) {
	topo := func() *topology.Topology {
		tp, err := topology.Uniform(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	opts := Options{Params: network.DefaultParams(), Transport: Transport{Enabled: true}}
	per := marginalAllocs(allocPingPong(t, topo, opts), 512, 512)
	if per > 0.01 {
		t.Errorf("steady-state reliable WAN send+recv allocates %.4f allocs/cycle, want 0", per)
	}
}

// TestWANFaultedAllocCap bounds the faulted path: wide-area traffic under
// 2 % loss runs through the reliable transport. Frames, acks and
// retransmissions ride pooled envelopes and the retransmission timer is a
// handler event, so once the pools, the go-back-N window and the mailboxes
// have grown to the run's peak depth a lossy cycle allocates nothing
// either. The gate sits at that measured zero: per-message allocation
// creeping into the delivery, retransmission or timer paths fails it.
func TestWANFaultedAllocCap(t *testing.T) {
	topo := func() *topology.Topology {
		tp, err := topology.Uniform(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	opts := Options{
		Params: network.DefaultParams(),
		Faults: faults.Params{DropRate: 0.02, Seed: 3},
	}
	per := marginalAllocs(allocPingPong(t, topo, opts), 512, 512)
	if per > 0.01 {
		t.Errorf("faulted WAN send+recv allocates %.4f allocs/cycle, want 0", per)
	}
}

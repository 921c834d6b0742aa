package par

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/wantopo"
)

// dropParked empties the list of parked sets, so the next run grows its
// slabs from empty.
func dropParked() {
	parked.Lock()
	defer parked.Unlock()
	parked.sets = nil
}

// parkedSets returns the sets parked right now.
func parkedSets() []*runSlabs {
	parked.Lock()
	defer parked.Unlock()
	return append([]*runSlabs(nil), parked.sets...)
}

// slabCells are runs of different shapes, so that a recycled set meets
// more and fewer ranks, deeper and shallower queues than the run that
// parked it: LAN-only and wide-area traffic, faults with the reliable
// transport, a multi-hop graph, and a churning regime.
func slabCells(t *testing.T) []func() (Result, error) {
	t.Helper()
	torus, err := wantopo.Parse("torus2", 4)
	if err != nil {
		t.Fatal(err)
	}
	params := network.DefaultParams().WithWAN(2*sim.Millisecond, 1e6)
	fp := faults.Params{DropRate: 0.05, DupRate: 0.05, ReorderJitter: 2 * sim.Millisecond, Seed: 9}
	cell := func(topo *topology.Topology, opts Options, job Job) func() (Result, error) {
		opts.Params = params
		return func() (Result, error) { return RunWith(topo, opts, job) }
	}
	return []func() (Result, error){
		cell(topology.MustUniform(1, 6), Options{}, randomJob(3, 40)),
		cell(topology.MustUniform(4, 3), Options{Faults: fp}, randomJob(17, 30)),
		cell(topology.MustUniform(4, 8), Options{WAN: torus}, randomJob(5, 20)),
		cell(topology.MustUniform(4, 3), Options{Regime: regime.Params{Spec: "diurnal:40ms:8+churn:60ms:15ms+rel", Seed: 5}}, randomJob(11, 30)),
		cell(topology.MustUniform(2, 4), faultyOpts(faults.Params{DropRate: 0.2, Seed: 7}), pingPong(t, 100)),
	}
}

// TestRecycledSlabsConcurrent runs cells of different shapes at once, four
// goroutines deep, each on whatever set another cell parked last; every run
// must return the Result it returns on slabs grown from empty. Run it under
// -race: a set handed to two runs at once, or touched by a run after it
// parked it, is a data race.
func TestRecycledSlabsConcurrent(t *testing.T) {
	cells := slabCells(t)
	want := make([]Result, len(cells))
	for i, run := range cells {
		dropParked()
		res, err := run()
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		want[i] = res
	}
	if len(parkedSets()) == 0 {
		t.Fatal("a finished run parked nothing")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 3*len(cells); n++ {
				i := (g + n) % len(cells)
				got, err := cells[i]()
				if err == nil && !reflect.DeepEqual(got, want[i]) {
					err = errors.New("Result differs from the run on fresh slabs")
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestParkedSlabsHoldNoReferences: a run that finishes with messages still
// in its mailboxes parks a set whose every slot is zero, and a run stopped
// by a budget with events queued parks nothing.
func TestParkedSlabsHoldNoReferences(t *testing.T) {
	dropParked()
	payload := new([64]byte)
	unread := func(e *Env) {
		if e.Rank() == 0 {
			for i := 0; i < 3; i++ {
				e.Send(1, 7, payload, 64) // nobody receives these
			}
		}
		e.Barrier()
	}
	if _, err := RunWith(relTopo(t), Options{Params: network.DefaultParams()}, unread); err != nil {
		t.Fatal(err)
	}
	sets := parkedSets()
	if len(sets) != 1 {
		t.Fatalf("%d sets parked after one run, want 1", len(sets))
	}
	s := sets[0]
	if len(s.nodes) != 8 || cap(s.nodes[1]) < 3 || cap(s.pend) == 0 || cap(s.ops) == 0 {
		t.Fatalf("parked set is missing a pool: %d mailboxes, rank 1's of %d nodes, %d envelopes, %d ops",
			len(s.nodes), cap(s.nodes[1]), cap(s.pend), cap(s.ops))
	}
	for r, nodes := range s.nodes {
		for i, n := range nodes[:cap(nodes)] {
			if n != (msgNode{}) {
				t.Errorf("rank %d's mailbox node %d still holds %+v", r, i, n)
			}
		}
	}
	for i, ev := range s.pend[:cap(s.pend)] {
		if ev != (envelope{}) {
			t.Errorf("envelope %d still holds %+v", i, ev)
		}
	}
	for i, op := range s.ops[:cap(s.ops)] {
		if op != (deferredOp{}) {
			t.Errorf("deferred op %d still holds %+v", i, op)
		}
	}

	dropParked()
	opts := faultyOpts(faults.Params{DropRate: 0.2, Seed: 7})
	opts.Budget = sim.Budget{MaxVirtualTime: 5 * sim.Millisecond}
	_, err := RunWith(relTopo(t), opts, pingPong(t, 100))
	var re *sim.RunError
	if !errors.As(err, &re) || re.Kind != sim.StopTimeBudget {
		t.Fatalf("want a time-budget RunError, got %v", err)
	}
	if sets := parkedSets(); len(sets) != 0 {
		t.Errorf("a run stopped with events queued parked %d set(s)", len(sets))
	}
}

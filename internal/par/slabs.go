package par

import (
	goruntime "runtime"
	"sync"

	"twolayer/internal/sim"
)

// runSlabs is the storage a run grows to its high-water marks: the
// kernel's event queue, the envelope pool, every rank's mailbox nodes and
// the deferred-op slab. A sweep runs thousands of cells of much the same
// shape, so a finished run parks its set and the next run grows into it
// instead of regrowing every slab from empty.
type runSlabs struct {
	queue sim.Slabs
	pend  []envelope
	nodes [][]msgNode // by rank
	ops   []deferredOp
}

// parked holds the sets of finished runs. It is a locked list rather than
// a sync.Pool because the sweeps that need it most allocate fast enough to
// collect garbage every few milliseconds, and a sync.Pool is emptied by two
// collections. It keeps at most GOMAXPROCS sets, one per cell a sweep runs
// at once, and is touched once when a run starts and once when it ends.
var parked struct {
	sync.Mutex
	sets []*runSlabs
}

// unparkSlabs returns a parked set, or an empty one if none is parked.
func unparkSlabs() *runSlabs {
	parked.Lock()
	defer parked.Unlock()
	n := len(parked.sets)
	if n == 0 {
		return new(runSlabs)
	}
	s := parked.sets[n-1]
	parked.sets[n-1] = nil
	parked.sets = parked.sets[:n-1]
	return s
}

// park stores the run's storage in s, the set it started on, cleared of
// every handler and payload it may still reference, detaches it from rt and
// hands s on to a later run. A run that stopped with events queued parks
// nothing: its kernel keeps the queue, and the pools go with it.
func (rt *runtime) park(s *runSlabs) {
	q, ok := rt.k.TakeSlabs()
	if !ok {
		return
	}
	clear(rt.pend)
	clear(rt.ops)
	s.queue, s.pend, s.ops = q, rt.pend[:0], rt.ops[:0]
	s.nodes = s.nodes[:0]
	for _, e := range rt.envs {
		clear(e.mb.nodes)
		s.nodes = append(s.nodes, e.mb.nodes[:0])
		e.mb.nodes = nil
	}
	clear(s.nodes[len(s.nodes):cap(s.nodes)]) // a larger run's ranks: let them go
	rt.pend, rt.ops = nil, nil
	parked.Lock()
	defer parked.Unlock()
	if len(parked.sets) < goruntime.GOMAXPROCS(0) {
		parked.sets = append(parked.sets, s)
	}
}

// Package barneshut implements the paper's Barnes-Hut application: an
// O(n log n) N-body simulation in the BSP style of Blackston and Suel.
// Instead of faulting in remote tree nodes during the force computation,
// each processor precomputes which parts of its local octree other
// processors will need (their "essential sets") and ships them in one
// collective communication phase at the start of each iteration, so the
// compute phase never stalls.
//
// Communication pattern (Table 2): "Multicast BSP/Pers" — personalized
// essential-set exchanges in barrier-separated supersteps.
//
// Cluster-aware optimizations (Section 3.2): essential sets for all
// recipients in a target cluster are combined into one message to the
// cluster gateway, which dispatches them locally; and the strict BSP
// barrier between supersteps is relaxed by counting expected messages
// ("explicit sequence numbers"), removing global synchronization from the
// wide area.
package barneshut

import (
	"fmt"
	"math"

	"twolayer/internal/apps"
	"twolayer/internal/par"
	"twolayer/internal/sim"
)

// Config sizes a Barnes-Hut run and sets its cost model.
type Config struct {
	// N is the number of bodies.
	N int
	// Iters is the number of timesteps.
	Iters int
	// Theta is the opening criterion.
	Theta float64
	// DT is the integration timestep.
	DT float64
	// Seed makes initial conditions deterministic.
	Seed int64
	// InteractCost is the virtual time charged per body-interactor force
	// evaluation.
	InteractCost sim.Time
	// BuildCost is the virtual time charged per created tree node.
	BuildCost sim.Time
	// ExportCost is the virtual time charged per node visited while
	// extracting essential sets.
	ExportCost sim.Time
	// BytesPerInteractor is the simulated wire size of one exported record;
	// inflated so the reduced body count carries the paper's 64K-body
	// communication volume.
	BytesPerInteractor int64
}

// Info is the registry entry (Table 2 row).
var Info = apps.Info{
	Name:         "Barnes-Hut",
	Pattern:      "Multicast BSP/Pers",
	Optimization: "BSP-msg Comb Node/Clus",
	HasOptimized: true,
	New:          func(s apps.Scale, procs int) apps.Instance { return New(ConfigFor(s), procs) },
}

// ConfigFor returns the configuration for a scale. Paper scale is
// calibrated against Table 1: speedup 28.4 on 32 processors, 17.8 MByte/s
// traffic, 1.8 s runtime (64K bodies in the paper).
func ConfigFor(s apps.Scale) Config {
	switch s {
	case apps.Tiny:
		return Config{N: 64, Iters: 2, Theta: 0.6, DT: 1e-3, Seed: 8,
			InteractCost: 2 * sim.Microsecond, BuildCost: sim.Microsecond,
			ExportCost: 500 * sim.Nanosecond, BytesPerInteractor: 36}
	case apps.Small:
		return Config{N: 256, Iters: 2, Theta: 0.6, DT: 1e-3, Seed: 8,
			InteractCost: 4 * sim.Microsecond, BuildCost: sim.Microsecond,
			ExportCost: 500 * sim.Nanosecond, BytesPerInteractor: 120}
	default:
		return Config{N: 512, Iters: 3, Theta: 0.6, DT: 1e-3, Seed: 8,
			InteractCost: 160 * sim.Microsecond, BuildCost: 16 * sim.Microsecond,
			ExportCost: 6 * sim.Microsecond, BytesPerInteractor: 800}
	}
}

// BarnesHut is one configured instance.
type BarnesHut struct {
	cfg    Config
	procs  int
	result []Vec // final positions

	// gather is the working set of the merged interactor tree. A rank uses
	// it only from its last receive to its force loop, with no yield in
	// between, so one serves every rank of a run.
	gather *gatherScratch
}

// gatherScratch is what one rank needs to merge the essential sets it
// received into an interactor tree: by far the largest per-rank state, and
// dead as soon as the forces are computed.
type gatherScratch struct {
	arena  *arena
	bodies []Body
	merged []Interactor
}

func (b *BarnesHut) getGather() *gatherScratch {
	if b.gather == nil {
		b.gather = &gatherScratch{arena: newArena()}
	}
	return b.gather
}

// New builds an instance for the given processor count.
func New(cfg Config, procs int) *BarnesHut {
	return &BarnesHut{cfg: cfg, procs: procs, result: make([]Vec, cfg.N)}
}

// blockOf returns the body range [lo, hi) owned by rank r.
func (b *BarnesHut) blockOf(r int) (lo, hi int) {
	return r * b.cfg.N / b.procs, (r + 1) * b.cfg.N / b.procs
}

// Message tags; per-iteration blocks prevent superstep cross-talk.
const (
	tagBBox    = iota
	tagEss     // essential set, direct (per recipient)
	tagEssClus // essential sets for a whole cluster, via the gateway
	tagsPerIter
)

func tag(iter, kind int) par.Tag { return par.Tag(100 + iter*tagsPerIter + kind) }

// essMsg is one sender's essential set for one recipient. A sender keeps
// one per destination for the whole run and sends a pointer to it, so the
// message header costs nothing per superstep.
type essMsg struct {
	from  int
	items []Interactor
}

// clusMsg combines the essential sets for every member of a cluster, in
// cluster rank order (a slice, not a map, so gateway dispatch order — and
// with it the whole simulation — stays deterministic). The gateway
// forwards each set as it came.
type clusMsg struct {
	dests []int
	sets  []essMsg
}

// Job returns the SPMD body.
func (b *BarnesHut) Job(optimized bool) par.Job {
	return func(e *par.Env) { b.run(e, optimized) }
}

func (b *BarnesHut) essBytes(n int) int64 { return 48 + int64(n)*b.cfg.BytesPerInteractor }

func (b *BarnesHut) run(e *par.Env, optimized bool) {
	cfg := b.cfg
	p := e.Size()
	r := e.Rank()
	lo, hi := b.blockOf(r)

	// Deterministic, zero-virtual-cost setup; the spatial sort gives each
	// rank a compact region so remote essential sets aggregate well. The
	// sorted cloud is memoized across ranks and runs; only this rank's
	// block is copied (it is integrated in place).
	all := sortedBodies(cfg.N, cfg.Seed)
	mine := append([]Body(nil), all[lo:hi]...)

	// Per-rank scratch recycled across iterations: the local tree is
	// rebuilt every step, and node pooling removes the build phase's
	// allocations entirely in the steady state.
	localArena := newArena()
	forces := make([]Vec, len(mine))

	// The superstep working set also belongs to the rank for the whole
	// run: the boxes and sets received, and one essential-set message per
	// destination, its items exported in place. r refills d's set in
	// iteration it+1 only after it has received d's it+1 bounding box, and
	// d sends that box only after it has copied iteration it's sets into
	// its interactor tree, the one forwarded by a gateway included.
	// Each exported interactor stands for a disjoint, non-empty set of this
	// rank's bodies, so no set exceeds len(mine): every set is carved out of
	// one backing array at that capacity and never regrows.
	boxes := make([]box, p)
	remote := make([][]Interactor, p)
	ess := make([]essMsg, p)
	per := len(mine)
	backing := make([]Interactor, p*per)
	for d := range ess {
		ess[d] = essMsg{from: r, items: backing[d*per : d*per : (d+1)*per]}
	}
	exportFor := func(t *tree, d int) int64 {
		var visited int64
		ess[d].items, visited = t.exportInto(ess[d].items[:0], boxes[d], cfg.Theta)
		return visited
	}
	// Optimized: one combined message per remote cluster. A cluster's
	// ranks are consecutive, so its members' sets are a run of ess.
	var clus []clusMsg
	if optimized {
		clus = make([]clusMsg, e.Clusters())
		for c := range clus {
			dests := e.Topology().RanksIn(c)
			clus[c] = clusMsg{dests, ess[dests[0] : dests[0]+len(dests)]}
		}
	}
	takeSet := func(m par.Msg) {
		em := m.Data.(*essMsg)
		remote[em.from] = em.items
	}
	takeBox := func(m par.Msg) {
		boxes[m.From] = m.Data.(box)
	}

	for it := 0; it < cfg.Iters; it++ {
		// Superstep 1: exchange block bounding boxes (small messages).
		myBox := boundsOf(mine)
		boxed := any(myBox)
		for d := 0; d < p; d++ {
			if d != r {
				e.Send(d, tag(it, tagBBox), boxed, 64)
			}
		}
		boxes[r] = myBox
		e.RecvN(par.AnySender, tag(it, tagBBox), p-1, takeBox)
		if !optimized {
			e.Barrier() // strict BSP superstep boundary
		}

		// Local tree build.
		t := buildTreeIn(localArena, mine)
		e.ComputeUnits(t.nodes, cfg.BuildCost)

		// Superstep 2: export and ship essential sets.
		var visitedTotal int64
		if !optimized {
			for d := 0; d < p; d++ {
				if d == r {
					continue
				}
				visitedTotal += exportFor(t, d)
				e.Send(d, tag(it, tagEss), &ess[d], b.essBytes(len(ess[d].items)))
			}
		} else {
			for c := 0; c < e.Clusters(); c++ {
				if c == e.Cluster() {
					// Same cluster: direct per-recipient messages (fast links).
					for _, d := range e.ClusterPeers() {
						if d == r {
							continue
						}
						visitedTotal += exportFor(t, d)
						e.Send(d, tag(it, tagEss), &ess[d], b.essBytes(len(ess[d].items)))
					}
					continue
				}
				// Remote cluster: one combined message to the gateway.
				total := 0
				for _, d := range e.Topology().RanksIn(c) {
					visitedTotal += exportFor(t, d)
					total += len(ess[d].items)
				}
				e.Send(e.Coordinator(c), tag(it, tagEssClus), &clus[c], b.essBytes(total))
			}
		}
		e.ComputeUnits(visitedTotal, cfg.ExportCost)

		// Receive essential sets; ordering by source rank keeps the force
		// summation deterministic and equal to the sequential reference.
		if optimized && r == e.Coordinator(e.Cluster()) {
			// Gateway duty: dispatch remote clusters' combined sets.
			nRemote := p - len(e.ClusterPeers())
			for i := 0; i < nRemote; i++ {
				m := e.Recv(tag(it, tagEssClus))
				cm := m.Data.(*clusMsg)
				for j, d := range cm.dests {
					em := &cm.sets[j]
					if d == r {
						remote[em.from] = em.items
						continue
					}
					e.Send(d, tag(it, tagEss), em, b.essBytes(len(em.items)))
				}
			}
		}
		expected := p - 1
		if optimized && r == e.Coordinator(e.Cluster()) {
			expected = len(e.ClusterPeers()) - 1 // the rest came while dispatching
		}
		e.RecvN(par.AnySender, tag(it, tagEss), expected, takeSet)
		if !optimized {
			e.Barrier() // strict BSP superstep boundary
		}

		// Compute: merge the received essential sets (in rank order, for
		// determinism) into one interactor tree, then per body combine the
		// local theta traversal with a theta traversal of the merged tree.
		// The forces are computed before either phase is charged — charging
		// yields, and the next rank reuses the merged tree's scratch — while
		// virtual time still sees build cost, then interaction cost.
		g := b.getGather()
		g.merged = g.merged[:0]
		for s := 0; s < p; s++ {
			g.merged = append(g.merged, remote[s]...)
		}
		var rt *tree
		rt, g.bodies = buildInteractorTreeIn(g.arena, g.bodies, g.merged)
		var work int64
		for i := range mine {
			acc, w := t.forceLocal(i, cfg.Theta)
			work += w
			racc, rw := rt.forceAt(mine[i].Pos, cfg.Theta)
			acc = acc.Add(racc)
			work += rw
			forces[i] = acc
		}
		builtNodes := rt.nodes
		e.ComputeUnits(builtNodes, cfg.BuildCost)
		e.ComputeUnits(work, cfg.InteractCost)

		// Integrate.
		for i := range mine {
			mine[i].Vel = mine[i].Vel.Add(forces[i].Scale(cfg.DT))
			mine[i].Pos = mine[i].Pos.Add(mine[i].Vel.Scale(cfg.DT))
		}
		if !optimized {
			e.Barrier()
		}
	}

	for i := range mine {
		b.result[lo+i] = mine[i].Pos
	}
}

// sequentialRun replays the identical partitioned algorithm on one thread:
// the reference is bit-exact because the parallel code fixes its summation
// order. onExport, if not nil, sees every essential set src exports for dst,
// the set the parallel run sends.
func (b *BarnesHut) sequentialRun(onExport func(src, dst int, items []Interactor)) []Vec {
	cfg := b.cfg
	p := b.procs
	all := sortedBodies(cfg.N, cfg.Seed)
	blocks := make([][]Body, p)
	for r := 0; r < p; r++ {
		lo, hi := b.blockOf(r)
		blocks[r] = append([]Body(nil), all[lo:hi]...)
	}
	// All p local trees are alive at once within an iteration, so each rank
	// keeps its own arena; the merged interactor tree is consumed inside
	// the per-rank loop and shares one.
	arenas := make([]*arena, p)
	for r := range arenas {
		arenas[r] = newArena()
	}
	rtArena := newArena()
	var rtScratch []Body
	for it := 0; it < cfg.Iters; it++ {
		boxes := make([]box, p)
		trees := make([]*tree, p)
		for r := 0; r < p; r++ {
			boxes[r] = boundsOf(blocks[r])
		}
		for r := 0; r < p; r++ {
			trees[r] = buildTreeIn(arenas[r], blocks[r])
		}
		exports := make([][][]Interactor, p) // exports[src][dst]
		for s := 0; s < p; s++ {
			exports[s] = make([][]Interactor, p)
			for d := 0; d < p; d++ {
				if s == d {
					continue
				}
				exports[s][d], _ = trees[s].exportInto(nil, boxes[d], cfg.Theta)
				if onExport != nil {
					onExport(s, d, exports[s][d])
				}
			}
		}
		for r := 0; r < p; r++ {
			var merged []Interactor
			for s := 0; s < p; s++ {
				if s == r {
					continue
				}
				merged = append(merged, exports[s][r]...)
			}
			var rt *tree
			rt, rtScratch = buildInteractorTreeIn(rtArena, rtScratch, merged)
			forces := make([]Vec, len(blocks[r]))
			for i := range blocks[r] {
				acc, _ := trees[r].forceLocal(i, cfg.Theta)
				racc, _ := rt.forceAt(blocks[r][i].Pos, cfg.Theta)
				acc = acc.Add(racc)
				forces[i] = acc
			}
			for i := range blocks[r] {
				blocks[r][i].Vel = blocks[r][i].Vel.Add(forces[i].Scale(cfg.DT))
				blocks[r][i].Pos = blocks[r][i].Pos.Add(blocks[r][i].Vel.Scale(cfg.DT))
			}
		}
	}
	out := make([]Vec, cfg.N)
	for r := 0; r < p; r++ {
		lo, _ := b.blockOf(r)
		copy(out[lo:], positionsOf(blocks[r]))
	}
	return out
}

func positionsOf(bodies []Body) []Vec {
	out := make([]Vec, len(bodies))
	for i, b := range bodies {
		out[i] = b.Pos
	}
	return out
}

// Check verifies the run against the sequential replay of the same
// partitioned algorithm.
func (b *BarnesHut) Check() error {
	want := b.sequentialRun(nil)
	for i := range want {
		d := b.result[i].Sub(want[i])
		if math.Abs(d.X)+math.Abs(d.Y)+math.Abs(d.Z) > 1e-9 {
			return fmt.Errorf("barneshut: body %d = %+v, want %+v", i, b.result[i], want[i])
		}
	}
	return nil
}

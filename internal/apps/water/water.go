// Package water implements the paper's Water application: an O(n^2)
// molecular-dynamics simulation derived from the Splash suite, rewritten
// for distributed memory.
//
// Communication pattern (Table 2): "all-to-half". Each iteration every
// processor pushes its molecule block to the half of the processors that
// compute interactions against it, and receives force contributions back —
// two all-to-half exchanges of O(p^2/2) messages each.
//
// Cluster-aware optimization (Section 3.2): per-remote-processor local
// coordinators. A molecule block crosses each wide-area link at most once
// and is then forwarded/cached inside the cluster; force updates are
// combined (reduced) at the coordinator so only one update message crosses
// the wide area per cluster, turning the two exchanges into two-level
// reduction trees.
package water

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"twolayer/internal/apps"
	"twolayer/internal/par"
	"twolayer/internal/sim"
)

// Config sizes a Water run and sets its cost model.
type Config struct {
	// N is the number of simulated molecules (real computation).
	N int
	// Iters is the number of timesteps.
	Iters int
	// DT is the integration timestep.
	DT float64
	// Seed makes initial conditions deterministic.
	Seed int64
	// PairCost is the virtual compute time charged per pairwise force
	// evaluation; calibrated so sequential virtual time matches the
	// paper-scale run.
	PairCost sim.Time
	// IntegrateCost is the virtual time charged per molecule update.
	IntegrateCost sim.Time
	// BytesPerMolecule is the simulated wire size of one molecule record;
	// inflated above the physical 72 bytes to keep the paper's
	// communication volume with the reduced molecule count.
	BytesPerMolecule int64
	// ReduceCostPerMolecule is charged when a coordinator folds one
	// molecule's force contribution into its accumulator.
	ReduceCostPerMolecule sim.Time
	// FixedCoordinators concentrates every remote owner's coordination on
	// each cluster's first rank instead of spreading it round-robin — the
	// ablation showing why the optimized pattern distributes the role.
	FixedCoordinators bool
}

// Info is the registry entry (Table 2 row).
var Info = apps.Info{
	Name:         "Water",
	Pattern:      "All to Half",
	Optimization: "Cluster Cache, Reduct Tree",
	HasOptimized: true,
	New:          func(s apps.Scale, procs int) apps.Instance { return New(ConfigFor(s), procs) },
}

// ConfigFor returns the configuration for a scale. The Paper scale is
// calibrated against Table 1: speedup 31.2 on 32 processors, 3.8 MByte/s
// traffic, 9.1 s runtime (sequential virtual time ~284 s).
func ConfigFor(s apps.Scale) Config {
	switch s {
	case apps.Tiny:
		return Config{N: 40, Iters: 2, DT: 1e-3, Seed: 1,
			PairCost: 2 * sim.Microsecond, IntegrateCost: sim.Microsecond,
			BytesPerMolecule: 72, ReduceCostPerMolecule: 100 * sim.Nanosecond}
	case apps.Small:
		return Config{N: 160, Iters: 3, DT: 1e-3, Seed: 1,
			PairCost: 30 * sim.Microsecond, IntegrateCost: 2 * sim.Microsecond,
			BytesPerMolecule: 160, ReduceCostPerMolecule: 100 * sim.Nanosecond}
	default:
		return Config{N: 480, Iters: 5, DT: 1e-3, Seed: 1,
			PairCost: 494 * sim.Microsecond, IntegrateCost: 20 * sim.Microsecond,
			BytesPerMolecule: 450, ReduceCostPerMolecule: 200 * sim.Nanosecond}
	}
}

// Water is one configured instance.
type Water struct {
	cfg   Config
	procs int
	// result collects each rank's final positions; safe to share because
	// the simulation interleaves one process at a time.
	result []Vec3
}

// New builds an instance for the given processor count.
func New(cfg Config, procs int) *Water {
	return &Water{cfg: cfg, procs: procs, result: make([]Vec3, cfg.N)}
}

// blockOf returns the index range [lo, hi) owned by rank r.
func (w *Water) blockOf(r int) (lo, hi int) {
	n, p := w.cfg.N, w.procs
	lo = r * n / p
	hi = (r + 1) * n / p
	return
}

// halfTargets returns the ranks whose blocks rank r computes interactions
// against (the "half shell"). For even p the diametric pair (r, r+p/2) is
// assigned to the lower rank only.
func halfTargets(r, p int) []int {
	out := make([]int, 0, p/2)
	for k := 1; k <= p/2; k++ {
		j := (r + k) % p
		if p%2 == 0 && k == p/2 && r >= p/2 {
			continue
		}
		out = append(out, j)
	}
	return out
}

// neederCache memoizes neederTable per processor count. The optimized
// program looks needers up per remote owner per rank, and again per
// forwarded block per iteration; inverting halfTargets afresh each time is
// O(p^2) appends per lookup, which at 128 processors was four fifths of a
// topology sweep's host time.
var neederCache struct {
	sync.Mutex
	tables map[int][][]int
}

// neederTable returns the inverse of halfTargets: entry j lists, ascending,
// the ranks that need rank j's positions (equivalently, that send force
// contributions back to j). The table is shared and must not be mutated.
func neederTable(p int) [][]int {
	neederCache.Lock()
	defer neederCache.Unlock()
	if t, ok := neederCache.tables[p]; ok {
		return t
	}
	t := make([][]int, p)
	for i := 0; i < p; i++ {
		for _, j := range halfTargets(i, p) {
			t[j] = append(t[j], i)
		}
	}
	if neederCache.tables == nil {
		neederCache.tables = make(map[int][][]int)
	}
	if len(neederCache.tables) > 16 { // sweeps touch a handful of machine sizes
		clear(neederCache.tables)
	}
	neederCache.tables[p] = t
	return t
}

// Message tags. Each iteration gets a disjoint block so messages from
// adjacent timesteps cannot be confused.
const (
	tagPos = iota // position block (direct or forwarded)
	tagPosWAN
	tagForce // force contributions for the receiver's block
	tagForceLocal
	tagsPerIter
)

func tag(iter, kind int) par.Tag { return par.Tag(100 + iter*tagsPerIter + kind) }

// posBytes is the simulated wire size of a block of count molecules.
func (w *Water) posBytes(count int) int64 { return 32 + int64(count)*w.cfg.BytesPerMolecule }

// coordinatorFor returns the rank in cluster c that acts as local
// coordinator for remote owner j, spreading the role over the cluster
// (or concentrating it on the first rank under FixedCoordinators).
func (w *Water) coordinatorFor(e *par.Env, j, c int) int {
	ranks := e.Topology().RanksIn(c)
	if w.cfg.FixedCoordinators {
		return ranks[0]
	}
	return ranks[j%len(ranks)]
}

// Job returns the SPMD body.
func (w *Water) Job(optimized bool) par.Job {
	return func(e *par.Env) {
		if e.Size() != w.procs {
			panic("water: instance built for a different processor count")
		}
		w.run(e, optimized)
	}
}

// posMsg carries one owner's block of positions.
type posMsg struct {
	owner int
	pos   []Vec3
}

// reqMsg is the unoptimized program's pull request for the sender's block.
type reqMsg struct {
	from int
}

// forceMsg carries force contributions for the target's whole block. A
// rank keeps one per target (and, as a coordinator, one per remote owner)
// for the whole run and sends a pointer to it.
type forceMsg struct {
	target  int
	contrib []Vec3
}

// forceMsgs returns one message per owner, each contribution a zeroed
// slice as long as the owner's block, all in one backing array.
func (w *Water) forceMsgs(owners []int) []forceMsg {
	total := 0
	for _, j := range owners {
		lo, hi := w.blockOf(j)
		total += hi - lo
	}
	buf := make([]Vec3, total)
	msgs := make([]forceMsg, len(owners))
	for k, j := range owners {
		lo, hi := w.blockOf(j)
		msgs[k] = forceMsg{j, buf[: hi-lo : hi-lo]}
		buf = buf[hi-lo:]
	}
	return msgs
}

func (w *Water) run(e *par.Env, optimized bool) {
	cfg := w.cfg
	p := e.Size()
	r := e.Rank()
	lo, hi := w.blockOf(r)
	nOwn := hi - lo

	// Deterministic, zero-virtual-cost setup; the memoized state is shared
	// read-only, so only this rank's block is copied.
	pos, vel := initialState(cfg.N, cfg.Seed)
	myPos := append([]Vec3(nil), pos[lo:hi]...)
	myVel := append([]Vec3(nil), vel[lo:hi]...)

	targets := halfTargets(r, p)
	needers := neederTable(p)
	feeders := needers[r] // who needs my positions / sends me forces

	// The working set lives for the whole run and is refilled in place
	// every iteration. Target j's block and contribution sit in slot
	// (j-r-1+p) % p, its index in targets. Sent buffers are refilled only
	// once their receivers have provably consumed them:
	//   - myPos is integrated only after every feeder's forces are in, and
	//     each feeder computed those from the positions it was sent;
	//   - contribs[s] is refilled in iteration it+1 only after targets[s]'s
	//     it+1 positions arrived, and targets[s] sends those only after it
	//     has consumed every contribution of iteration it, whether sent
	//     direct or folded into a coordinator's accumulator.
	// The position headers never change, so they are boxed once.
	theirPos := make([][]Vec3, len(targets))
	contribs := w.forceMsgs(targets)
	myForce := make([]Vec3, nOwn)
	posBox := any(posMsg{r, myPos})
	reqBox := any(reqMsg{r})
	have := 0 // position blocks received this iteration
	takePos := func(m par.Msg) {
		pm := m.Data.(posMsg)
		theirPos[(pm.owner-r-1+p)%p] = pm.pos
		have++
	}
	addForce := func(m par.Msg) {
		fm := m.Data.(*forceMsg)
		for i := range myForce {
			myForce[i] = myForce[i].Add(fm.contrib[i])
		}
	}

	// Static coordinator bookkeeping for the optimized version: the remote
	// owners this rank coordinates for in its cluster (ascending), how many
	// local contributions each expects, and its accumulator. An
	// accumulator sent to owner j is refilled in iteration it+1 only from
	// contributions computed against j's it+1 positions, which j sends
	// only after it has consumed the accumulator of iteration it.
	var (
		coordOwners []int
		need, left  []int
		acc         []forceMsg
		expect      int    // local contributions per iteration, all owners
		expected    int    // force messages for my own block per iteration
		sentCluster []bool // per cluster: my block already crossed to it
	)
	if optimized {
		myCluster := e.Cluster()
		for j := 0; j < p; j++ {
			if e.SameCluster(j) || w.coordinatorFor(e, j, myCluster) != r {
				continue
			}
			// Only coordinate if some rank in my cluster needs j's block or
			// contributes forces to j.
			n := 0
			for _, i := range needers[j] {
				if e.Topology().ClusterOf(i) == myCluster {
					n++
				}
			}
			if n == 0 {
				continue
			}
			coordOwners = append(coordOwners, j)
			need = append(need, n)
			expect += n
		}
		acc = w.forceMsgs(coordOwners)
		left = make([]int, len(need))
		sentCluster = make([]bool, e.Clusters())
		for _, i := range feeders {
			if e.SameCluster(i) {
				expected++
			} else if c := e.Topology().ClusterOf(i); !sentCluster[c] {
				sentCluster[c] = true
				expected++ // one combined update per remote cluster
			}
		}
	} else {
		expected = len(feeders)
	}

	for it := 0; it < cfg.Iters; it++ {
		have = 0

		// ---- Phase A: distribute positions (all-to-half). ----
		if !optimized {
			// The original program pulls each needed block with a blocking
			// object invocation; Orca's runtime allows a couple of
			// outstanding requests, so the fetches form chains of round
			// trips — the latency sensitivity the paper observes. Requests
			// and replies share the phase tag; every rank keeps serving its
			// feeders' requests while its own pulls progress, which makes
			// the exchange deadlock-free.
			const window = 2
			need := len(targets)
			serve := len(feeders)
			next, outstanding := 0, 0
			for next < len(targets) && outstanding < window {
				e.Send(targets[next], tag(it, tagPos), reqBox, 32)
				next++
				outstanding++
			}
			for need > 0 || serve > 0 {
				m := e.Recv(tag(it, tagPos))
				switch d := m.Data.(type) {
				case reqMsg:
					e.Send(d.from, tag(it, tagPos), posBox, w.posBytes(nOwn))
					serve--
				case posMsg:
					takePos(m)
					need--
					outstanding--
					if next < len(targets) {
						e.Send(targets[next], tag(it, tagPos), reqBox, 32)
						next++
						outstanding++
					}
				}
			}
		} else {
			clear(sentCluster)
			for _, i := range feeders {
				if e.SameCluster(i) {
					e.Send(i, tag(it, tagPos), posBox, w.posBytes(nOwn))
					continue
				}
				c := e.Topology().ClusterOf(i)
				if !sentCluster[c] {
					sentCluster[c] = true
					e.Send(w.coordinatorFor(e, r, c), tag(it, tagPosWAN), posBox, w.posBytes(nOwn))
				}
			}
			// Coordinator duty: forward wide-area blocks to local needers,
			// keeping the ones this rank needs itself (the "cache").
			for range coordOwners {
				m := e.Recv(tag(it, tagPosWAN))
				pm := m.Data.(posMsg)
				for _, i := range needers[pm.owner] {
					if e.Topology().ClusterOf(i) != e.Cluster() || i == r {
						continue
					}
					e.Send(i, tag(it, tagPos), m.Data, w.posBytes(len(pm.pos)))
				}
				if contains(targets, pm.owner) {
					takePos(m)
				}
			}
		}

		// Every missing block arrives exactly once.
		e.RecvN(par.AnySender, tag(it, tagPos), len(targets)-have, takePos)

		// ---- Compute forces. ----
		clear(myForce)
		pairs := int64(nOwn * (nOwn - 1) / 2)
		forceHalf(myPos, myForce)
		for s, jb := range theirPos {
			cj := contribs[s].contrib
			clear(cj)
			forceCross(myPos, jb, myForce, cj)
			pairs += int64(nOwn * len(jb))
		}
		e.ComputeUnits(pairs, cfg.PairCost)

		// ---- Phase B: return force contributions (half-to-all). ----
		if !optimized {
			for s, j := range targets {
				e.Send(j, tag(it, tagForce), &contribs[s], w.posBytes(len(contribs[s].contrib)))
			}
		} else {
			for s, j := range targets {
				if e.SameCluster(j) {
					e.Send(j, tag(it, tagForce), &contribs[s], w.posBytes(len(contribs[s].contrib)))
				} else {
					e.Send(w.coordinatorFor(e, j, e.Cluster()), tag(it, tagForceLocal),
						&contribs[s], w.posBytes(len(contribs[s].contrib)))
				}
			}
			// Coordinator duty: reduce local contributions per remote owner
			// and forward one combined update over the wide area.
			copy(left, need)
			for n := expect; n > 0; n-- {
				m := e.Recv(tag(it, tagForceLocal))
				fm := m.Data.(*forceMsg)
				k, _ := slices.BinarySearch(coordOwners, fm.target)
				a := acc[k].contrib
				if left[k] == need[k] {
					copy(a, fm.contrib)
				} else {
					for i := range a {
						a[i] = a[i].Add(fm.contrib[i])
					}
					e.ComputeUnits(int64(len(a)), cfg.ReduceCostPerMolecule)
				}
				left[k]--
				if left[k] == 0 {
					e.Send(fm.target, tag(it, tagForce), &acc[k], w.posBytes(len(a)))
				}
			}
		}

		// Collect contributions for my own block.
		e.RecvN(par.AnySender, tag(it, tagForce), expected, addForce)

		// ---- Integrate. ----
		for i := 0; i < nOwn; i++ {
			myVel[i] = myVel[i].Add(myForce[i].Scale(cfg.DT))
			myPos[i] = myPos[i].Add(myVel[i].Scale(cfg.DT))
		}
		e.ComputeUnits(int64(nOwn), cfg.IntegrateCost)
	}

	copy(w.result[lo:hi], myPos)
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Check verifies the parallel result against the sequential reference.
func (w *Water) Check() error {
	want := sequentialRun(w.cfg.N, w.cfg.Iters, w.cfg.Seed, w.cfg.DT)
	for i := range want {
		d := w.result[i].Sub(want[i])
		if math.Abs(d.X)+math.Abs(d.Y)+math.Abs(d.Z) > 1e-6 {
			return fmt.Errorf("water: molecule %d diverged: got %+v want %+v", i, w.result[i], want[i])
		}
	}
	return nil
}

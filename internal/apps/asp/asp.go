// Package asp implements the paper's All-pairs Shortest Path application: a
// parallel Floyd-Warshall over a replicated distance matrix. Row owners
// broadcast pivot rows, which every processor must apply in pivot order; a
// sequencer process hands out that order, so every broadcast is preceded by
// a sequence-number RPC.
//
// Communication pattern (Table 2): "Totally Ordered Broadcast".
//
// Cluster-aware optimizations (Section 3.2): the sequencer migrates to the
// cluster of the current sender, so sequence requests stay on the fast
// network (the sequencer migrates only clusters-1 times); and broadcasts
// use a two-level multicast tree — point-to-point to each remote cluster's
// coordinator, multicast inside clusters — instead of a flat binomial tree
// that straddles cluster boundaries.
package asp

import (
	"fmt"
	"iter"

	"twolayer/internal/apps"
	"twolayer/internal/par"
	"twolayer/internal/sim"
)

// Config sizes an ASP run and sets its cost model.
type Config struct {
	// N is the number of graph vertices (the matrix is N x N).
	N int
	// Seed makes the graph deterministic.
	Seed int64
	// RelaxCost is the virtual time charged per matrix cell relaxation.
	RelaxCost sim.Time
	// BytesPerEntry is the simulated wire size of one row entry; inflated
	// above 4 bytes so the reduced vertex count carries the paper's
	// 1500-entry (6 KByte) row broadcasts.
	BytesPerEntry int64
	// DropSequencer applies the paper's suggested alternative optimization
	// ("another solution would be to drop the sequencer altogether, since
	// processors know who will send which row"): the optimized variant
	// broadcasts without any sequence-number traffic. Receivers already
	// apply rows in pivot order, so correctness is unaffected.
	DropSequencer bool
}

// Info is the registry entry (Table 2 row).
var Info = apps.Info{
	Name:         "ASP",
	Pattern:      "Totally Ordered Broadcast",
	Optimization: "Sequencer Migration",
	HasOptimized: true,
	New:          func(s apps.Scale, procs int) apps.Instance { return New(ConfigFor(s), procs) },
}

// ConfigFor returns the configuration for a scale. Paper scale is
// calibrated against Table 1: speedup 31.3 on 32 processors, 6.0 s runtime
// (~4 ms of relaxation per pivot across 32 processors, 6 KByte rows).
func ConfigFor(s apps.Scale) Config {
	switch s {
	case apps.Tiny:
		return Config{N: 48, Seed: 4, RelaxCost: 2 * sim.Microsecond, BytesPerEntry: 4}
	case apps.Small:
		return Config{N: 128, Seed: 4, RelaxCost: 4 * sim.Microsecond, BytesPerEntry: 12}
	default:
		return Config{N: 512, Seed: 4, RelaxCost: 488 * sim.Nanosecond, BytesPerEntry: 12}
	}
}

// ASP is one configured instance.
type ASP struct {
	cfg    Config
	procs  int
	result [][]int32
}

// New builds an instance for the given processor count.
func New(cfg Config, procs int) *ASP {
	return &ASP{cfg: cfg, procs: procs, result: make([][]int32, cfg.N)}
}

// rowsOf returns the row range [lo, hi) owned by rank r.
func (a *ASP) rowsOf(r int) (lo, hi int) {
	return r * a.cfg.N / a.procs, (r + 1) * a.cfg.N / a.procs
}

// ownerOf returns the rank owning pivot row k.
func (a *ASP) ownerOf(k int) int {
	// Block distribution: invert rowsOf by search from the proportional
	// guess (the ranges are monotone).
	r := k * a.procs / a.cfg.N
	for {
		lo, hi := a.rowsOf(r)
		switch {
		case k < lo:
			r--
		case k >= hi:
			r++
		default:
			return r
		}
	}
}

// Message tags.
const (
	tagRow   par.Tag = 100 + iota // pivot row broadcast / forward
	tagSeq                        // sequence-number request (RPC)
	tagToken                      // sequencer migration token
)

// rowMsg is a pivot-row broadcast.
type rowMsg struct {
	k     int
	owner int
	row   []int32
}

func (a *ASP) rowBytes() int64 { return 32 + int64(a.cfg.N)*a.cfg.BytesPerEntry }

// sequencerFor returns the rank holding the sequencer when pivot k is
// broadcast: rank 0 in the unoptimized program, the coordinator of the
// sender's cluster in the optimized one. The migration schedule is static
// because row ownership is.
func (a *ASP) sequencerFor(e *par.Env, k int, optimized bool) int {
	if !optimized {
		return 0
	}
	return e.Coordinator(e.Topology().ClusterOf(a.ownerOf(k)))
}

// grantPivots returns the pivots rank r issues sequence numbers for.
func (a *ASP) grantPivots(e *par.Env, r int, optimized bool) []int {
	var out []int
	for k := 0; k < a.cfg.N; k++ {
		if a.sequencerFor(e, k, optimized) == r {
			out = append(out, k)
		}
	}
	return out
}

// binChildren yields the children of virtual rank vr in a binomial tree of
// size n, largest subtree first.
func binChildren(vr, n int) iter.Seq[int] {
	return func(yield func(int) bool) {
		for m := par.BinomialLowbit(vr, n) >> 1; m >= 1; m >>= 1 {
			if vr+m < n && !yield(vr+m) {
				return
			}
		}
	}
}

// sendTree forwards rm (a boxed rowMsg, boxed once per broadcast and passed
// on as received) to this rank's children in a binomial tree over the n
// consecutive ranks starting at base, rooted at rank root.
func (a *ASP) sendTree(e *par.Env, rm any, base, n, root int) {
	r := e.Rank()
	if r < base || r >= base+n || root < base || root >= base+n {
		panic("asp: rank not in multicast group")
	}
	vr := (r - root + n) % n
	for cv := range binChildren(vr, n) {
		e.Send(base+(cv+root-base)%n, tagRow, rm, a.rowBytes())
	}
}

// sendClusterTree is sendTree over this rank's own cluster, whose ranks are
// consecutive from its coordinator.
func (a *ASP) sendClusterTree(e *par.Env, rm any, root int) {
	c := e.Cluster()
	a.sendTree(e, rm, e.Coordinator(c), e.Topology().ClusterSize(c), root)
}

// broadcast initiates the pivot-row broadcast from its owner.
func (a *ASP) broadcast(e *par.Env, row rowMsg, optimized bool) {
	var rm any = row
	if !optimized {
		a.sendTree(e, rm, 0, a.procs, row.owner)
		return
	}
	// Two-level: one wide-area message per remote cluster coordinator, then
	// intra-cluster multicast.
	for c := 0; c < e.Clusters(); c++ {
		if c == e.Cluster() {
			continue
		}
		e.Send(e.Coordinator(c), tagRow, rm, a.rowBytes())
	}
	a.sendClusterTree(e, rm, e.Rank())
}

// forward relays a received pivot row, still boxed, down the multicast
// structure.
func (a *ASP) forward(e *par.Env, rm any, owner int, optimized bool) {
	if !optimized {
		a.sendTree(e, rm, 0, a.procs, owner)
		return
	}
	// Intra-cluster tree rooted at the owner (same cluster) or at this
	// cluster's coordinator (row arrived over the wide area).
	root := owner
	if !e.SameCluster(owner) {
		root = e.Coordinator(e.Cluster())
	}
	a.sendClusterTree(e, rm, root)
}

// Job returns the SPMD body.
func (a *ASP) Job(optimized bool) par.Job {
	return func(e *par.Env) { a.run(e, optimized) }
}

func (a *ASP) run(e *par.Env, optimized bool) {
	cfg := a.cfg
	r := e.Rank()
	n := cfg.N
	lo, hi := a.rowsOf(r)

	// Locally initialized (zero virtual cost). Each rank only updates its
	// own rows; pivot rows arrive by broadcast, so only the owned block is
	// materialized.
	mine := randomGraphRows(n, cfg.Seed, lo, hi)

	// Sequencer bookkeeping. The token arrives from the previous sequencer
	// before the first grant; rank sequencerFor(0) starts with it. With
	// DropSequencer the optimized variant skips the machinery entirely.
	noSeq := cfg.DropSequencer && optimized
	var grants []int
	if !noSeq {
		grants = a.grantPivots(e, r, optimized)
	}
	grantsDone := 0
	holding := len(grants) > 0 && a.sequencerFor(e, 0, optimized) == r
	var pendingReq *par.Request // a request that arrived before the token

	// afterGrant advances the grant counter and passes the token on after
	// the final grant.
	afterGrant := func() {
		grantsDone++
		if !optimized || grantsDone < len(grants) {
			return
		}
		last := grants[len(grants)-1]
		for k := last + 1; k < n; k++ {
			if s := a.sequencerFor(e, k, optimized); s != r {
				e.Send(s, tagToken, nil, 16)
				return
			}
		}
	}

	buffered := make(map[int]rowMsg)
	next := 0 // next pivot to apply

	relax := func(rowk []int32, k int) {
		relaxRows(mine, rowk, k)
		e.ComputeUnits(int64(len(mine)*n), cfg.RelaxCost)
		next++
	}

	// sendPivot broadcasts owned row k itself, not a copy, and applies it
	// here. A receiver applies it whenever it reaches pivot k, by which
	// time this rank may have relaxed the row with later pivots; the result
	// is still exact. The row is sent after pivots 0..k-1 were applied, so
	// every entry is at most Floyd-Warshall's row k, and from then on it
	// only decreases while staying the length of some real path, so never
	// below the true distance. By induction over the pivots, every row a
	// receiver holds stays between standard Floyd-Warshall's row after the
	// same pivots and the true distances, and after the last pivot both
	// bounds are the distances. The virtual cost and the sequencer read no
	// value, so no event moves either.
	sendPivot := func(k int) {
		row := mine[k-lo]
		a.broadcast(e, rowMsg{k, r, row}, optimized)
		relax(row, k)
	}

	handle := func(m par.Msg) {
		switch m.Tag {
		case tagRow:
			rm := m.Data.(rowMsg)
			a.forward(e, m.Data, rm.owner, optimized)
			buffered[rm.k] = rm
		case tagSeq:
			req := m.Data.(par.Request)
			if !holding {
				pendingReq = &req
				return
			}
			e.Reply(req, next, 16)
			afterGrant()
		case tagToken:
			holding = true
			if pendingReq != nil {
				req := *pendingReq
				pendingReq = nil
				e.Reply(req, next, 16)
				afterGrant()
			}
		default:
			panic(fmt.Sprintf("asp: unexpected tag %d", m.Tag))
		}
	}

	for next < n {
		if a.ownerOf(next) == r {
			k := next
			if noSeq {
				sendPivot(k)
				continue
			}
			seq := a.sequencerFor(e, k, optimized)
			if seq == r {
				// Self-grant; the token must have arrived first.
				for !holding {
					handle(e.Recv(tagToken))
				}
				afterGrant()
			} else {
				// Blocking RPC for the sequence number — the stall the
				// paper describes. Incoming rows simply queue meanwhile.
				e.Call(seq, tagSeq, k, 16)
			}
			sendPivot(k)
			continue
		}
		if m, ok := buffered[next]; ok {
			delete(buffered, next)
			relax(m.row, m.k)
			continue
		}
		handle(e.Recv(par.AnyTag))
	}

	for i := lo; i < hi; i++ {
		a.result[i] = mine[i-lo]
	}
}

// Check verifies the distributed result against sequential Floyd-Warshall.
func (a *ASP) Check() error {
	want := randomGraph(a.cfg.N, a.cfg.Seed)
	sequentialASP(want)
	for i := range want {
		if a.result[i] == nil {
			return fmt.Errorf("asp: row %d missing", i)
		}
		for j := range want[i] {
			if a.result[i][j] != want[i][j] {
				return fmt.Errorf("asp: dist[%d][%d] = %d, want %d", i, j, a.result[i][j], want[i][j])
			}
		}
	}
	return nil
}

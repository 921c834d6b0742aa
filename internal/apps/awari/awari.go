// Package awari implements the paper's Awari application: parallel
// retrograde analysis that builds an end-game database bottom-up, level by
// level in the number of stones on the board. States are hashed to
// processors; solving a state generates small asynchronous value-update
// messages to the owners of related states.
//
// Communication pattern (Table 2): "Asynch Unordered Msg" — a very high
// volume of tiny messages. The original program already combines updates
// per destination processor; the run is organized in update rounds, each
// round flushing one combined message per communication channel.
//
// Cluster-aware optimization (Section 3.2): a second level of message
// combining. Updates for a remote cluster are assembled into a single
// message to that cluster's designated processor, sent once over the slow
// link, and redistributed locally — cutting wide-area messages per round
// from p*(p-p/C) to p*(C-1).
package awari

import (
	"fmt"

	"twolayer/internal/apps"
	"twolayer/internal/par"
	"twolayer/internal/sim"
)

// Config sizes an Awari run and sets its cost model.
type Config struct {
	// Rules fixes the board.
	Rules Rules
	// MaxStones is the largest database level to compute.
	MaxStones int
	// StateCost is the virtual time charged to set up one owned state
	// (move generation, counter initialization).
	StateCost sim.Time
	// UpdateCost is the virtual time charged to process one update.
	UpdateCost sim.Time
	// UpdateBytes is the simulated wire size of one update record.
	UpdateBytes int64
}

// Info is the registry entry (Table 2 row).
var Info = apps.Info{
	Name:         "Awari",
	Pattern:      "Asynch Unordered Msg",
	Optimization: "Msg Comb/Clus",
	HasOptimized: true,
	New:          func(s apps.Scale, procs int) apps.Instance { return New(ConfigFor(s), procs) },
}

// ConfigFor returns the configuration for a scale. Paper scale is
// calibrated against Table 1: Awari is the suite's worst scaler (speedup
// 7.8 on 32 processors, 2.3 s runtime) because communication dominates.
func ConfigFor(s apps.Scale) Config {
	switch s {
	case apps.Tiny:
		return Config{Rules: Rules{PitsPerSide: 2}, MaxStones: 4,
			StateCost: 2 * sim.Microsecond, UpdateCost: sim.Microsecond, UpdateBytes: 12}
	case apps.Small:
		return Config{Rules: Rules{PitsPerSide: 3}, MaxStones: 5,
			StateCost: 5 * sim.Microsecond, UpdateCost: 2 * sim.Microsecond, UpdateBytes: 12}
	default:
		return Config{Rules: Rules{PitsPerSide: 3}, MaxStones: 7,
			StateCost: 70 * sim.Microsecond, UpdateCost: 26 * sim.Microsecond, UpdateBytes: 12}
	}
}

// Awari is one configured instance.
type Awari struct {
	cfg    Config
	procs  int
	result map[State]Value
}

// New builds an instance for the given processor count. The database is
// sized for every state up to MaxStones, so publishing never regrows it.
func New(cfg Config, procs int) *Awari {
	states := 0
	for level := 0; level <= cfg.MaxStones; level++ {
		states += len(cfg.Rules.enumerate(level))
	}
	return &Awari{cfg: cfg, procs: procs, result: make(map[State]Value, states)}
}

// FNV-1a constants, matching hash/fnv's 32-bit parameters.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// stateHash is FNV-1a over the pit bytes followed by the mover byte —
// the same byte sequence the hash/fnv-based original wrote, unrolled to
// avoid the hasher allocation. Integer arithmetic, so the value (and the
// state-to-rank placement the whole run depends on) is bit-identical.
func stateHash(s State) uint32 {
	h := uint32(fnvOffset32)
	for _, v := range s.Pits {
		h = (h ^ uint32(byte(v))) * fnvPrime32
	}
	return (h ^ uint32(byte(s.Mover))) * fnvPrime32
}

// owner hashes a state to its owning rank.
func (a *Awari) owner(s State) int {
	return int(stateHash(s) % uint32(a.procs))
}

// update is one unit of the asynchronous traffic: either a subscription
// ("tell me about v, for my state u") or a notification ("v solved as
// val, relevant to your state u").
type update struct {
	subscribe bool
	v, u      State
	val       Value
}

// Message tags are offset by a run-global round counter so rounds can never
// cross-talk even when one processor runs ahead.
const (
	tagData par.Tag = 100 + iota
	tagBundle
	tagFwd
	tagAct
	tagActDown
	tagsPerRound
)

func roundTag(round int, kind par.Tag) par.Tag {
	return kind + par.Tag(round)*tagsPerRound
}

// Job returns the SPMD body.
func (a *Awari) Job(optimized bool) par.Job {
	return func(e *par.Env) { a.run(e, optimized) }
}

func (a *Awari) run(e *par.Env, optimized bool) {
	cfg := a.cfg
	p := e.Size()
	r := e.Rank()
	rules := cfg.Rules

	// values and cnt are sized for the states this rank owns (all levels,
	// from the memoized enumeration), so they never regrow.
	owned := 0
	for level := 0; level <= cfg.MaxStones; level++ {
		for _, u := range rules.enumerate(level) {
			if a.owner(u) == r {
				owned++
			}
		}
	}
	values := make(map[State]Value, owned)
	cnt := make(map[State]int, owned)
	subs := make(map[State][]State) // v -> predecessor states waiting on it
	level := 0

	// Outgoing updates are buffered per destination rank (local ones skip
	// the network) in slots of buffer sets: round k flushes slot k % depth,
	// and the sets it sends (direct buffers, per-cluster bundles, a
	// coordinator's per-member forwards) go out as pointers into the slot,
	// which a receiver copies out of when it consumes the message. A slot
	// is refilled only after round k+1's dense exchange is in: each
	// round-(k+1) message a rank receives was sent after its sender (and,
	// through a coordinator, every rank whose bundle it forwards) had
	// consumed round k. The OR reduction proves nothing, as a coordinator
	// that is already active skips its receives. With two slots, pushes
	// into slot k % 2 start in round k+1's processing, after its exchange;
	// adaptive overlap processes while the exchange is still coming in, so
	// it takes a third slot, refilled from round k+2 on.
	adaptive := e.Adaptive()
	depth := 2
	if adaptive {
		depth = 3
	}
	coord := e.Coordinator(e.Cluster())
	peers := e.ClusterPeers()
	slots := make([]sendSets, depth)
	for i := range slots {
		slots[i].out = make([][]update, p)
		if optimized {
			slots[i].bundles = make([]bundleMsg, e.Clusters())
			if r == coord {
				slots[i].fwd = make([][]update, len(peers))
			}
		}
	}
	out := slots[0].out
	var localPending []update
	queued := false
	push := func(u update, dst int) {
		if dst == r {
			localPending = append(localPending, u)
		} else {
			out[dst] = append(out[dst], u)
		}
		queued = true
	}

	var solve func(s State, v Value)
	solve = func(s State, v Value) {
		if values[s] != Unknown {
			return
		}
		values[s] = v
		for _, u := range subs[s] {
			push(update{v: s, u: u, val: v}, a.owner(u))
		}
		delete(subs, s)
	}

	process := func(u update) {
		if u.subscribe {
			if v := values[u.v]; v != Unknown {
				push(update{v: u.v, u: u.u, val: v}, a.owner(u.u))
			} else {
				subs[u.v] = append(subs[u.v], u.u)
			}
			return
		}
		// Notification about u.v for predecessor u.u (owned here).
		if values[u.u] != Unknown {
			return
		}
		switch u.val {
		case Loss:
			solve(u.u, Win)
		case Win:
			cnt[u.u]--
			if cnt[u.u] == 0 {
				solve(u.u, Loss)
			}
		}
		// Draw notifications carry no decision power.
	}

	round := 0
	bytesFor := func(n int) int64 { return 16 + int64(n)*cfg.UpdateBytes }

	// The round's incoming updates and the helpers that collect them live
	// out here, made once per rank: the collectors are handed to the runtime
	// (Env.RecvN keeps them until the batch is in), so inside exchangeRound
	// they would be heap-allocated every round.
	var pending []update // this round's updates: local ones, then received
	procIdx := 0         // prefix of pending already processed (adaptive overlap)

	// overlapStep processes one batch of already-received updates; an
	// adaptive run calls it while waiting for slow wide-area messages,
	// overlapping this round's mandatory processing with regime-inflated
	// message latency. Updates are processed in the same prefix order as
	// the static program (within-round processing is order-independent
	// anyway: a state's counter reaches zero only when every successor
	// reported Win, which excludes any pending Loss for it), and the
	// total compute charged is identical — it just runs during waits.
	overlapStep := func() bool {
		if procIdx >= len(pending) {
			return false
		}
		batch := len(pending) - procIdx
		if batch > 64 {
			batch = 64
		}
		e.ComputeUnits(int64(batch), cfg.UpdateCost)
		for _, u := range pending[procIdx : procIdx+batch] {
			process(u)
		}
		procIdx += batch
		return true
	}
	// recvN receives count messages matching (from, tag). Statically it
	// is one counted receive (each only touches this rank's state, so
	// the rank need not wake per message); adaptively it polls and fills
	// the wait with overlapStep, falling back to a blocking receive only
	// when no processing work remains (so it never spins).
	recvN := func(count, from int, tag par.Tag, each func(par.Msg)) {
		if !adaptive {
			e.RecvN(from, tag, count, each)
			return
		}
		for got := 0; got < count; got++ {
			polled := false
			for {
				if m, ok := e.TryRecv(from, tag); ok {
					each(m)
					polled = true
					break
				}
				if !overlapStep() {
					break
				}
			}
			if !polled {
				each(e.RecvFrom(from, tag))
			}
		}
	}
	addData := func(m par.Msg) {
		pending = append(pending, *m.Data.(*[]update)...)
	}
	// The coordinator's bundle receiver fills the round's forwards.
	var fwd [][]update
	addBundle := func(m par.Msg) {
		bm := m.Data.(*bundleMsg)
		for j, u := range bm.updates {
			d := bm.dests[j]
			if d == r {
				pending = append(pending, u)
			} else {
				i := e.Topology().RankInCluster(d)
				fwd[i] = append(fwd[i], u)
			}
		}
	}

	// exchangeRound flushes every buffer (dense: empty messages keep the
	// per-round receive counts deterministic), receives and processes this
	// round's incoming updates, and returns whether any processor queued
	// new work.
	exchangeRound := func() bool {
		dataTag := roundTag(round, tagData)
		bundleTag := roundTag(round, tagBundle)
		fwdTag := roundTag(round, tagFwd)
		cur := &slots[round%depth]

		if !optimized {
			for d := 0; d < p; d++ {
				if d == r {
					continue
				}
				e.Send(d, dataTag, &out[d], bytesFor(len(out[d])))
			}
		} else {
			// Intra-cluster updates go direct; remote ones are combined per
			// destination cluster and routed through its coordinator.
			for _, d := range peers {
				if d == r {
					continue
				}
				e.Send(d, dataTag, &out[d], bytesFor(len(out[d])))
			}
			for c := 0; c < e.Clusters(); c++ {
				if c == e.Cluster() {
					continue
				}
				bm := &cur.bundles[c]
				bm.updates, bm.dests = bm.updates[:0], bm.dests[:0]
				for _, d := range e.Topology().RanksIn(c) {
					bm.updates = append(bm.updates, out[d]...)
					for range out[d] {
						bm.dests = append(bm.dests, d)
					}
				}
				e.Send(e.Coordinator(c), bundleTag, bm, bytesFor(len(bm.updates)))
			}
		}
		out = slots[(round+1)%depth].out
		for d := range out {
			out[d] = out[d][:0]
		}

		// Local updates are processed as part of this round.
		pending, localPending = localPending, pending[:0]
		queued = false
		procIdx = 0

		if !optimized {
			recvN(p-1, par.AnySender, dataTag, addData)
		} else {
			// Coordinator duty first: unpack remote bundles and forward one
			// combined message per member.
			if r == coord {
				fwd = cur.fwd
				for i := range fwd {
					fwd[i] = fwd[i][:0]
				}
				recvN(p-len(peers), par.AnySender, bundleTag, addBundle)
				for i, d := range peers {
					if d == r {
						continue
					}
					e.Send(d, fwdTag, &fwd[i], bytesFor(len(fwd[i])))
				}
			}
			recvN(len(peers)-1, par.AnySender, dataTag, addData)
			if r != coord {
				recvN(1, coord, fwdTag, addData)
			}
		}

		// Charge processing once per batch (one context switch instead of
		// thousands), then apply the updates (minus any prefix an adaptive
		// run already overlapped with the receives above).
		e.ComputeUnits(int64(len(pending)-procIdx), cfg.UpdateCost)
		for _, u := range pending[procIdx:] {
			process(u)
		}

		// Global OR-reduction of "queued new work". The unoptimized program
		// uses a flat binomial tree over global ranks (whose hops straddle
		// clusters); the optimized one reduces within each cluster first and
		// exchanges a single value per cluster over the wide area.
		active := queued || len(localPending) > 0
		actTag := roundTag(round, tagAct)
		downTag := roundTag(round, tagActDown)
		if !optimized {
			lowbit := par.BinomialLowbit(r, p)
			for mask := 1; mask < lowbit && r+mask < p; mask <<= 1 {
				m := e.RecvFrom(r+mask, actTag)
				active = active || m.Data.(bool)
			}
			if r != 0 {
				e.Send(r-lowbit, actTag, active, 17)
				active = e.RecvFrom(r-lowbit, downTag).Data.(bool)
			}
			for mask := lowbit >> 1; mask >= 1; mask >>= 1 {
				if r+mask < p {
					e.Send(r+mask, downTag, active, 17)
				}
			}
		} else {
			// Intra-cluster gather at the coordinator. Once active is true,
			// `active || e.Recv(...)` skips the receive, so the act messages
			// it would have taken stay queued for the rest of the run (824
			// of them in a Small run at the reference point, 1,526 at
			// Paper), and every later selective receive of the coordinator
			// walks past them. Consuming them would move when coordinators
			// run, and with it every Awari/opt golden, so they stay.
			if r != coord {
				e.Send(coord, actTag, active, 17)
				active = e.RecvFrom(coord, downTag).Data.(bool)
			} else {
				for i := 0; i < len(peers)-1; i++ {
					active = active || e.Recv(actTag).Data.(bool)
				}
				// One wide-area exchange between coordinators via rank 0's
				// coordinator.
				rootCoord := e.Coordinator(0)
				if r != rootCoord {
					e.Send(rootCoord, actTag, active, 17)
					active = e.RecvFrom(rootCoord, downTag).Data.(bool)
				} else {
					for c := 1; c < e.Clusters(); c++ {
						active = active || e.Recv(actTag).Data.(bool)
					}
					for c := 0; c < e.Clusters(); c++ {
						if cc := e.Coordinator(c); cc != r {
							e.Send(cc, downTag, active, 17)
						}
					}
				}
				for _, d := range peers {
					if d != r {
						e.Send(d, downTag, active, 17)
					}
				}
			}
		}
		round++
		return active
	}

	var succBuf []State // reused across states; movesInto keeps it capacity-stable
	for level = 0; level <= cfg.MaxStones; level++ {
		// Setup: own states at this level.
		states := rules.enumerate(level)
		ownedStates := 0
		for _, u := range states {
			if a.owner(u) != r {
				continue
			}
			ownedStates++
			succ := rules.movesInto(succBuf, u)
			succBuf = succ
			if len(succ) == 0 {
				solve(u, Loss)
				continue
			}
			cnt[u] = len(succ)
			for _, v := range succ {
				push(update{subscribe: true, v: v, u: u}, a.owner(v))
			}
		}
		e.ComputeUnits(int64(ownedStates), cfg.StateCost)

		// Update rounds until global quiescence.
		for exchangeRound() {
		}

		// Remaining unknowns at this level are draws; drop their dangling
		// subscriptions (the waiters are in-level and become draws too).
		for _, u := range states {
			if a.owner(u) == r && values[u] == Unknown {
				values[u] = Draw
			}
		}
		for v := range subs {
			if rules.stones(v) == level {
				delete(subs, v)
			}
		}
	}

	// Publish owned values for verification. Each rank publishes a disjoint
	// set of states (its owned partition), so the merged map is the same
	// whatever the publish order; a run is one sequential kernel, so no two
	// ranks publish at once.
	for s, v := range values {
		a.result[s] = v
	}
}

// bundleMsg carries combined updates for a whole cluster plus their final
// destinations.
type bundleMsg struct {
	updates []update
	dests   []int
}

// sendSets is one slot of a rank's outgoing buffers: per destination rank,
// per remote cluster (optimized), and per cluster member (a coordinator's
// forwards, indexed by cluster rank).
type sendSets struct {
	out     [][]update
	bundles []bundleMsg
	fwd     [][]update
}

// Check verifies the distributed database against the sequential solver and
// the minimax consistency equations.
func (a *Awari) Check() error {
	want := solveSequential(a.cfg.Rules, a.cfg.MaxStones)
	if len(a.result) != len(want) {
		return fmt.Errorf("awari: database has %d states, want %d", len(a.result), len(want))
	}
	for s, v := range want {
		if a.result[s] != v {
			return fmt.Errorf("awari: state %v = %v, want %v", s, a.result[s], v)
		}
	}
	if s, ok := checkConsistency(a.cfg.Rules, a.result, a.cfg.MaxStones); !ok {
		return fmt.Errorf("awari: database inconsistent at state %v", s)
	}
	return nil
}

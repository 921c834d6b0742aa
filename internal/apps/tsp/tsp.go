// Package tsp implements the paper's Traveling Salesperson application:
// branch-and-bound over partial tours, parallelized with a job queue.
// Deterministic runs are ensured with a fixed cutoff bound, exactly as in
// the paper.
//
// Communication pattern (Table 2): "Centralized Work Queue" — a single
// queue server hands out small jobs over RPC, so with 4 clusters 75% of the
// fetches cross the wide area.
//
// Cluster-aware optimization (Section 3.2): one queue per cluster with the
// job set partitioned round-robin; workers fetch from their own cluster's
// queue over the fast network and steal from remote queues only when the
// local queue has drained. Inter-cluster traffic then depends only on the
// number of clusters, not on the number of processors.
package tsp

import (
	"fmt"

	"twolayer/internal/apps"
	"twolayer/internal/par"
	"twolayer/internal/sim"
)

// Config sizes a TSP run and sets its cost model.
type Config struct {
	// N is the number of cities.
	N int
	// JobDepth is the partial-tour length of a queue job.
	JobDepth int
	// Seed makes the city layout deterministic.
	Seed int64
	// NodeCost is the virtual time charged per search-tree node.
	NodeCost sim.Time
	// JobBytes is the simulated wire size of a job reply (tour prefix plus
	// queue bookkeeping state).
	JobBytes int64
	// StealBatch caps how many jobs a steal transfers: 0 (the default)
	// hands over half the victim's queue; 1 degenerates to per-job
	// stealing, the ablation showing why batching matters over slow links.
	StealBatch int
}

// Info is the registry entry (Table 2 row).
var Info = apps.Info{
	Name:         "TSP",
	Pattern:      "Centralized Work Queue",
	Optimization: "Work Q/Cluster + Work Steal",
	HasOptimized: true,
	New:          func(s apps.Scale, procs int) apps.Instance { return New(ConfigFor(s), procs) },
}

// ConfigFor returns the configuration for a scale. Paper scale is
// calibrated against Table 1: speedup 29.2 on 32 processors, 4.7 s runtime,
// 0.52 MByte/s traffic — the lowest-volume, most latency-bound program in
// the suite.
func ConfigFor(s apps.Scale) Config {
	switch s {
	case apps.Tiny:
		return Config{N: 8, JobDepth: 2, Seed: 6, NodeCost: 5 * sim.Microsecond, JobBytes: 64}
	case apps.Small:
		return Config{N: 10, JobDepth: 3, Seed: 6, NodeCost: 100 * sim.Microsecond, JobBytes: 64}
	default:
		return Config{N: 12, JobDepth: 4, Seed: 6, NodeCost: 800 * sim.Microsecond, JobBytes: 1024}
	}
}

// TSP is one configured instance.
type TSP struct {
	cfg    Config
	procs  int
	best   int32 // global minimum, written by rank 0 after the final reduce
	done   bool
	cutoff int32
	// rankBests records each rank's best tour length; safe to share without
	// a lock because every rank writes only its own element, and the final
	// reduce reads them after all ranks finished.
	rankBests []int32
}

// New builds an instance for the given processor count. The cutoff bound
// is precomputed here: it is a pure function of the configuration, so the
// ranks share one value rather than each computing and storing it.
func New(cfg Config, procs int) *TSP {
	d := cities(cfg.N, cfg.Seed)
	t := &TSP{cfg: cfg, procs: procs, rankBests: make([]int32, procs),
		cutoff: nearestNeighborBound(d)}
	for i := range t.rankBests {
		t.rankBests[i] = -1
	}
	return t
}

// Message tags.
const (
	tagGet        par.Tag = 100 + iota // worker asks its queue for a job
	tagResult                          // worker reports its local best to rank 0
	tagSteal                           // server-to-server steal request
	tagStealReply                      // batch of stolen jobs (or empty)
	tagServerDone                      // a server announces it is permanently empty
)

// getReply is the queue's answer to a fetch.
type getReply struct {
	ok  bool // false: the queue is permanently empty; the worker stops
	job job
}

// Job returns the SPMD body.
func (t *TSP) Job(optimized bool) par.Job {
	return func(e *par.Env) { t.run(e, optimized) }
}

// serverRanks lists the queue-server ranks: rank 0 only (unoptimized) or
// one coordinator per cluster (optimized).
func serverRanks(e *par.Env, optimized bool) []int {
	if !optimized {
		return []int{0}
	}
	out := make([]int, e.Clusters())
	for c := range out {
		out[c] = e.Coordinator(c)
	}
	return out
}

func (t *TSP) run(e *par.Env, optimized bool) {
	cfg := t.cfg
	d := cities(cfg.N, cfg.Seed)
	minOut := minOutEdges(d)
	cutoff := t.cutoff // precomputed in New; see there for why

	servers := serverRanks(e, optimized)
	isServer := false
	serverIdx := 0
	for i, s := range servers {
		if s == e.Rank() {
			isServer, serverIdx = true, i
		}
	}

	var early []int32 // results that arrived while rank 0 was still serving
	if e.Size() == len(servers) {
		// Degenerate shape with no dedicated workers (e.g. one processor):
		// each server expands its own share locally.
		all := generateJobs(d, minOut, t.cfg.JobDepth, cutoff)
		best := cutoff
		scratch := newScratch(len(d))
		for i, j := range all {
			if i%len(servers) != serverIdx {
				continue
			}
			b, nodes := expandWith(scratch, d, minOut, j, cutoff)
			e.ComputeUnits(nodes, t.cfg.NodeCost)
			if b < best {
				best = b
			}
		}
		t.rankBests[e.Rank()] = best
	} else if isServer {
		early = t.runServer(e, d, minOut, cutoff, servers, serverIdx, optimized)
	} else {
		t.runWorker(e, d, minOut, cutoff, servers, optimized)
	}

	// Final reduction of local bests at rank 0 (servers report the cutoff).
	if e.Rank() == 0 {
		best := t.localBest(e)
		for _, b := range early {
			if b < best {
				best = b
			}
		}
		for i := len(early); i < e.Size()-1; i++ {
			m := e.Recv(tagResult)
			if b := m.Data.(int32); b < best {
				best = b
			}
		}
		t.best = best
		t.done = true
	} else {
		e.Send(0, tagResult, t.localBest(e), 16)
	}
}

// localBest returns this rank's recorded best (servers, which expand no
// jobs, report the cutoff).
func (t *TSP) localBest(e *par.Env) int32 {
	if v := t.rankBests[e.Rank()]; v >= 0 {
		return v
	}
	return t.cutoff
}

// myServer returns the queue server a worker talks to: rank 0 in the
// unoptimized program, the worker's own cluster coordinator otherwise.
func myServer(e *par.Env, optimized bool) int {
	if !optimized {
		return 0
	}
	return e.Coordinator(e.Cluster())
}

// runServer runs a queue server as an event loop. Its share of the job list
// is the whole list for the unoptimized program, a round-robin slice for
// the optimized one. Workers fetch over tagGet; when the share drains and
// workers are waiting, the server steals half-queue batches from its peers
// (server-to-server, so inter-cluster steal traffic depends only on the
// number of clusters). After a fruitless steal round over all live peers
// the server declares itself done, releases its stalled workers, and stays
// responsive to peers until all of them have declared done as well.
// It returns any tagResult messages that arrived during serving (only rank
// 0 receives those), so the caller's final reduce can account for them.
func (t *TSP) runServer(e *par.Env, d [][]int32, minOut []int32, cutoff int32, servers []int, serverIdx int, optimized bool) []int32 {
	all := generateJobs(d, minOut, t.cfg.JobDepth, cutoff)
	var queue []job
	for i, j := range all {
		if i%len(servers) == serverIdx {
			queue = append(queue, j)
		}
	}
	var others []int
	for _, s := range servers {
		if s != e.Rank() {
			others = append(others, s)
		}
	}
	myWorkers := 0
	for w := 0; w < e.Size(); w++ {
		if isIn(servers, w) {
			continue
		}
		if !optimized || e.Topology().ClusterOf(w) == e.Cluster() {
			myWorkers++
		}
	}

	var (
		stash          []par.Request // worker fetches waiting for jobs
		outstanding    int           // steal requests in flight this round
		roundGain      bool          // whether the current steal round got jobs
		fruitlessRound bool          // a full round completed with no gain
		restricted     bool          // current round skipped churned-out peers
		forceFull      bool          // next round must probe every live peer
		doneSelf       bool
		doneTold       int // local workers that received the done reply
		peerDone       = map[int]bool{}
		peerDoneN      = 0
	)
	jobBytes := func(k int) int64 { return 32 + int64(k)*t.cfg.JobBytes }

	becomeDone := func() {
		doneSelf = true
		for _, s := range others {
			e.Send(s, tagServerDone, nil, 16)
		}
		for _, req := range stash {
			e.Reply(req, getReply{}, 32)
			doneTold++
		}
		stash = nil
	}

	// progress serves waiting workers, launches steal rounds, and detects
	// completion; called after every state change. A steal round probes all
	// live peers in parallel; a fully fruitless round means the work is
	// gone.
	progress := func() {
		if doneSelf {
			return
		}
		for len(stash) > 0 && len(queue) > 0 {
			req := stash[0]
			stash = stash[1:]
			e.Reply(req, getReply{ok: true, job: queue[0]}, jobBytes(1))
			queue = queue[1:]
		}
		if len(queue) > 0 || outstanding > 0 {
			return
		}
		if myWorkers == 0 {
			becomeDone() // nobody to serve; peers already took what they could
			return
		}
		if len(stash) == 0 {
			return // all workers are busy; steal lazily on demand
		}
		var targets []int
		for _, s := range others {
			if !peerDone[s] {
				targets = append(targets, s)
			}
		}
		if len(targets) == 0 || fruitlessRound {
			becomeDone()
			return
		}
		// Churn-aware victim selection: under an adaptive regime with
		// whole-cluster churn, skip peers whose cluster is churned out right
		// now — a steal request there just sits in the reliable transport
		// until the rejoin while local workers starve. A restricted round
		// can never declare the work gone (the skipped peer may hold jobs),
		// so a fruitless restricted round forces the next one to probe the
		// full peer set; termination still requires a fruitless full round,
		// exactly as in the static program.
		restricted = false
		if forceFull {
			forceFull = false
		} else if e.Adaptive() && e.RegimeHasChurn() && !e.ClusterDown(e.Cluster()) {
			var live []int
			for _, s := range targets {
				if !e.ClusterDown(e.Topology().ClusterOf(s)) {
					live = append(live, s)
				}
			}
			if len(live) > 0 && len(live) < len(targets) {
				targets = live
				restricted = true
			}
		}
		roundGain = false
		for _, s := range targets {
			e.Send(s, tagSteal, par.Request{ReplyTo: e.Rank(), ReplyTag: tagStealReply}, 32)
			outstanding++
		}
	}

	var early []int32
	progress()
	for doneTold < myWorkers || peerDoneN < len(others) || !doneSelf {
		m := e.Recv(par.AnyTag)
		switch m.Tag {
		case tagResult:
			early = append(early, m.Data.(int32))
		case tagGet:
			req := m.Data.(par.Request)
			if doneSelf {
				e.Reply(req, getReply{}, 32)
				doneTold++
				continue
			}
			stash = append(stash, req)
		case tagSteal:
			req := m.Data.(par.Request)
			// Hand over half the queue (rounded down), keeping the front
			// for local workers; StealBatch caps the transfer.
			k := len(queue) / 2
			if len(queue) == 1 {
				k = 1
			}
			if t.cfg.StealBatch > 0 && k > t.cfg.StealBatch {
				k = t.cfg.StealBatch
			}
			batch := append([]job(nil), queue[len(queue)-k:]...)
			queue = queue[:len(queue)-k]
			e.Reply(req, batch, jobBytes(len(batch)))
		case tagStealReply:
			outstanding--
			batch := m.Data.([]job)
			if len(batch) > 0 {
				queue = append(queue, batch...)
				roundGain = true
			}
			if outstanding == 0 && !roundGain {
				if restricted {
					forceFull = true // the skipped, churned-out peer may hold jobs
				} else {
					fruitlessRound = true
				}
			}
		case tagServerDone:
			peerDone[m.From] = true
			peerDoneN++
		default:
			panic(fmt.Sprintf("tsp: server got unexpected tag %d", m.Tag))
		}
		progress()
	}
	return early
}

// isIn reports whether v occurs in s.
func isIn(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// runWorker fetches jobs from its own queue server until it reports done.
func (t *TSP) runWorker(e *par.Env, d [][]int32, minOut []int32, cutoff int32, servers []int, optimized bool) {
	best := cutoff
	q := myServer(e, optimized)
	scratch := newScratch(len(d))
	for {
		m := e.Call(q, tagGet, nil, 32)
		rep := m.Data.(getReply)
		if !rep.ok {
			break
		}
		b, nodes := expandWith(scratch, d, minOut, rep.job, cutoff)
		e.ComputeUnits(nodes, t.cfg.NodeCost)
		if b < best {
			best = b
		}
	}
	t.rankBests[e.Rank()] = best
}

// Check verifies the parallel optimum against the sequential solver.
func (t *TSP) Check() error {
	if !t.done {
		return fmt.Errorf("tsp: run did not complete")
	}
	want, _ := sequentialSolve(cities(t.cfg.N, t.cfg.Seed), t.cfg.JobDepth)
	if t.best != want {
		return fmt.Errorf("tsp: best = %d, want %d", t.best, want)
	}
	return nil
}

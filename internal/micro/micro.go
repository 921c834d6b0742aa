// Package micro characterizes the simulated interconnect with synthetic
// communication patterns. Section 5.2 of the paper reads the applications
// through two idealized lenses — purely synchronous communication (the
// "null-RPC", limited by latency) and purely asynchronous streaming
// (limited by bandwidth). This package provides those two extremes plus
// the patterns between them (personalized all-to-all, hot spot), so the
// interconnect itself can be measured independently of any application.
package micro

import (
	"fmt"

	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
	"twolayer/internal/topology"
)

// Pattern is one synthetic workload.
type Pattern struct {
	// Name identifies the pattern.
	Name string
	// Description explains what it stresses.
	Description string
	// Job builds the SPMD body for the given repetition count and message
	// size.
	Job func(reps int, bytes int64) par.Job
}

// Tags for the synthetic traffic.
const (
	tagPing par.Tag = 100 + iota
	tagPong
	tagStream
	tagA2A
	tagHot
)

// Patterns returns the synthetic workload suite. All patterns place their
// communicating pairs across cluster boundaries so the wide-area links are
// what they measure.
func Patterns() []Pattern {
	return []Pattern{
		{
			Name:        "null-rpc",
			Description: "cross-cluster request/reply chain: pure latency",
			Job: func(reps int, bytes int64) par.Job {
				return func(e *par.Env) {
					partner, active := crossPartner(e)
					if !active {
						return
					}
					lower := e.Rank() < partner
					for i := 0; i < reps; i++ {
						if lower {
							e.Send(partner, tagPing, nil, bytes)
							e.RecvFrom(partner, tagPong)
						} else {
							e.RecvFrom(partner, tagPing)
							e.Send(partner, tagPong, nil, bytes)
						}
					}
				}
			},
		},
		{
			Name:        "stream",
			Description: "one-way cross-cluster flood: pure bandwidth",
			Job: func(reps int, bytes int64) par.Job {
				return func(e *par.Env) {
					partner, active := crossPartner(e)
					if !active {
						return
					}
					if e.Rank() < partner {
						for i := 0; i < reps; i++ {
							e.Send(partner, tagStream, nil, bytes)
						}
						return
					}
					for i := 0; i < reps; i++ {
						e.RecvFrom(partner, tagStream)
					}
				}
			},
		},
		{
			Name:        "all-to-all",
			Description: "personalized exchange: bisection bandwidth (the FFT pattern)",
			Job: func(reps int, bytes int64) par.Job {
				return func(e *par.Env) {
					p := e.Size()
					for k := 0; k < reps; k++ {
						for i := 1; i < p; i++ {
							e.Send((e.Rank()+i)%p, tagA2A, nil, bytes)
						}
						for i := 1; i < p; i++ {
							e.Recv(tagA2A)
						}
					}
				}
			},
		},
		{
			Name:        "hot-spot",
			Description: "everyone calls rank 0: serialization at a server (the TSP pattern)",
			Job: func(reps int, bytes int64) par.Job {
				return func(e *par.Env) {
					if e.Rank() == 0 {
						total := (e.Size() - 1) * reps
						for i := 0; i < total; i++ {
							m := e.Recv(tagHot)
							req := m.Data.(par.Request)
							e.Reply(req, nil, bytes)
						}
						return
					}
					for i := 0; i < reps; i++ {
						e.Call(0, tagHot, nil, 32)
					}
				}
			},
		},
	}
}

// crossPartner pairs each rank with the same-index rank of the next
// cluster; ranks without a cross-cluster partner sit out (single-cluster
// machines measure the fast network).
func crossPartner(e *par.Env) (int, bool) {
	topo := e.Topology()
	if topo.Clusters() == 1 {
		// Pair neighbouring ranks inside the cluster.
		if e.Rank()%2 == 0 && e.Rank()+1 < e.Size() {
			return e.Rank() + 1, true
		}
		if e.Rank()%2 == 1 {
			return e.Rank() - 1, true
		}
		return 0, false
	}
	// Pair cluster 2k with cluster 2k+1 (mutually); with an odd cluster
	// count the last cluster sits out.
	c := e.Cluster()
	idx := e.ClusterRank()
	var other int
	if c%2 == 0 {
		other = c + 1
		if other >= topo.Clusters() {
			return 0, false
		}
	} else {
		other = c - 1
	}
	if idx < topo.ClusterSize(other) {
		return topo.FirstRank(other) + idx, true
	}
	return 0, false
}

// Result is one measured pattern.
type Result struct {
	Pattern string
	Elapsed sim.Time
	// PerOp is the elapsed time per repetition.
	PerOp sim.Time
	// WANBytesPerSec is the achieved aggregate wide-area throughput.
	WANBytesPerSec float64
}

// Measure runs every pattern on the machine and returns per-op costs.
func Measure(topo *topology.Topology, params network.Params, reps int, bytes int64) ([]Result, error) {
	var out []Result
	for _, p := range Patterns() {
		res, err := par.Run(topo, params, 31, p.Job(reps, bytes))
		if err != nil {
			return nil, fmt.Errorf("micro: %s: %w", p.Name, err)
		}
		r := Result{
			Pattern: p.Name,
			Elapsed: res.Elapsed,
			PerOp:   res.Elapsed / sim.Time(reps),
		}
		if res.Elapsed > 0 {
			r.WANBytesPerSec = float64(res.WAN.Bytes) / res.Elapsed.Seconds()
		}
		out = append(out, r)
	}
	return out, nil
}

// Render formats the measurements.
func Render(results []Result) string {
	t := stats.NewTable("Pattern", "Total", "Per op", "WAN throughput MB/s")
	for _, r := range results {
		t.AddRow(r.Pattern, r.Elapsed.String(), r.PerOp.String(),
			fmt.Sprintf("%.3f", r.WANBytesPerSec/1e6))
	}
	return t.String()
}

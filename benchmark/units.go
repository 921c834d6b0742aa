package main

import (
	"time"

	"twolayer/internal/analytic"
	"twolayer/internal/apps"
	"twolayer/internal/apps/asp"
	"twolayer/internal/apps/awari"
	"twolayer/internal/apps/barneshut"
	"twolayer/internal/apps/fft"
	"twolayer/internal/apps/tsp"
	"twolayer/internal/apps/water"
	"twolayer/internal/collective"
	"twolayer/internal/core"
	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
	"twolayer/internal/wantopo"
)

// unitRounds is how many timed rounds follow the warm-up; the median is
// reported.
const unitRounds = 5

// rounds runs fn once untimed, then unitRounds times, and returns the
// median of the values it reports.
func rounds(fn func() (float64, error)) (float64, error) {
	if _, err := fn(); err != nil {
		return 0, err
	}
	vals := make([]float64, 0, unitRounds)
	for i := 0; i < unitRounds; i++ {
		v, err := fn()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// overheadPct times two arms alternately — so a slow stretch of a shared
// machine lands on both — and returns how much slower the median with run
// is than the median without, in percent.
func overheadPct(without, with func() error) (float64, error) {
	var a, b []float64
	for i := 0; i <= unitRounds; i++ {
		for _, arm := range []struct {
			fn  func() error
			dst *[]float64
		}{{without, &a}, {with, &b}} {
			t0 := time.Now()
			if err := arm.fn(); err != nil {
				return 0, err
			}
			if i > 0 { // round 0 warms up
				*arm.dst = append(*arm.dst, float64(time.Since(t0)))
			}
		}
	}
	return 100 * (median(b) - median(a)) / median(a), nil
}

// marginal prices one more operation: fn at 2n minus fn at n, over n. The
// per-run set-up (kernel construction, stacks, pools growing to depth)
// cancels, so a zero-allocation path reports a true zero.
func marginal(n int, fn func(n int) error) (nsPerOp, allocsPerOp float64, err error) {
	var allocs []float64
	nsPerOp, err = rounds(func() (float64, error) {
		a, err := timed(func() error { return fn(n) })
		if err != nil {
			return 0, err
		}
		b, err := timed(func() error { return fn(2 * n) })
		allocs = append(allocs, max(b.Mallocs-a.Mallocs, 0)/float64(n))
		return max(b.WallS-a.WallS, 0) * 1e9 / float64(n), err
	})
	if err != nil {
		return 0, 0, err
	}
	return nsPerOp, median(allocs[1:]), nil // [0] is the warm-up round
}

// unitCosts is group (A): each layer's unit cost on fixed inputs, timed
// from here through the layer's public functions.
func unitCosts(dir string) (map[string]float64, error) {
	m := map[string]float64{"cliutil.workers_resolved": float64(core.DefaultWorkers())}
	for _, step := range []func(map[string]float64) error{
		simUnits, networkUnits, parUnits, engineUnits, collectiveUnits, appUnits, analyticUnits,
		func(m map[string]float64) error { return cacheUnits(m, dir) },
		wantopoUnits, traceUnits,
	} {
		if err := step(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func simUnits(m map[string]float64) error {
	const chain = 2_000_000
	v, err := rounds(func() (float64, error) {
		k := sim.NewKernel()
		left := chain
		var step func()
		step = func() {
			if left--; left > 0 {
				k.After(sim.Microsecond, step)
			}
		}
		k.After(0, step)
		t0 := time.Now()
		err := k.Run()
		return float64(time.Since(t0)) / float64(k.EventsFired()), err
	})
	if err != nil {
		return err
	}
	m["sim.kernel_ns_per_event"] = v

	// Two blocked processes bouncing a wake: the pattern underneath every
	// simulated message delivery.
	const bounces = 200_000
	m["sim.handoff_ns_per_event"], err = rounds(func() (float64, error) {
		k := sim.NewKernel()
		var ping, pong sim.Cond
		k.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < bounces; i++ {
				k.CallAfter(0, &pong, 0)
				ping.Wait(p, "ping")
			}
		})
		k.Spawn("pong", func(p *sim.Proc) {
			for i := 0; i < bounces; i++ {
				pong.Wait(p, "pong")
				k.CallAfter(0, &ping, 0)
			}
		})
		t0 := time.Now()
		err := k.Run()
		return float64(time.Since(t0)) / float64(k.EventsFired()), err
	})
	return err
}

// resender is a delivery handler that answers every arrival with the next
// send, so one message at a time crosses the network and no link queues.
type resender struct {
	net      *network.Network
	src, dst int
	left     int
}

func (r *resender) HandleEvent(uint64) {
	if r.left--; r.left > 0 {
		r.net.SendHandle(r.src, r.dst, 1024, network.ClassData, r, 0)
	}
}

func networkUnits(m map[string]float64) error {
	torus, err := wantopo.Parse("torus:8x8", 64)
	if err != nil {
		return err
	}
	far := 0
	for c := 1; c < 64; c++ {
		if torus.Hops(0, c) > torus.Hops(0, far) {
			far = c
		}
	}
	for _, c := range []struct {
		name string
		topo *topology.Topology
		wan  *wantopo.WAN
		dst  int
	}{
		{"network.lan_send_ns", topology.SingleCluster(2), nil, 1},
		{"network.wan_send_ns", topology.MustUniform(2, 1), nil, 1},
		{"network.multihop_send_ns", topology.MustUniform(64, 1), torus, far},
	} {
		ns, _, err := marginal(200_000, func(n int) error {
			k := sim.NewKernel()
			r := &resender{net: network.NewWithWAN(k, c.topo, network.DefaultParams(), c.wan), dst: c.dst, left: n + 1}
			k.After(0, func() { r.HandleEvent(0) })
			return k.Run()
		})
		if err != nil {
			return err
		}
		m[c.name] = ns
	}
	return nil
}

// pingPong is n request/reply cycles of 1 KB between two ranks.
func pingPong(topo *topology.Topology, opts par.Options) func(n int) error {
	return func(n int) error {
		_, err := par.RunWith(topo, opts, func(e *par.Env) {
			peer := 1 - e.Rank()
			for i := 0; i < n; i++ {
				if e.Rank() == 0 {
					e.Send(peer, 1, nil, 1024)
					e.RecvFrom(peer, 2)
				} else {
					e.RecvFrom(peer, 1)
					e.Send(peer, 2, nil, 1024)
				}
			}
		})
		return err
	}
}

func parUnits(m map[string]float64) error {
	lan, wan := topology.SingleCluster(2), topology.MustUniform(2, 1)
	clean := par.Options{Params: network.DefaultParams()}
	faulted := clean
	faulted.Faults = faults.Params{DropRate: 0.02, Seed: 3}
	for _, c := range []struct {
		name string
		fn   func(int) error
	}{
		{"par.lan_cycle", pingPong(lan, clean)},
		{"par.wan_cycle", pingPong(wan, clean)},
		{"par.wan_faulted_cycle", pingPong(wan, faulted)},
	} {
		ns, allocs, err := marginal(50_000, c.fn)
		if err != nil {
			return err
		}
		m[c.name+"_ns"] = ns
		if c.name != "par.wan_faulted_cycle" {
			m[c.name+"_allocs"] = allocs
		}
	}
	return nil
}

// engineUnits runs the 11 golden variants at Paper scale at the reference
// point under each engine: sequential, windowed on one worker, windowed on
// two. With cliutil.workers_resolved this is the engine-selection cost.
func engineUnits(m map[string]float64) error {
	for _, c := range []struct {
		name    string
		workers int
	}{{"par.engine_seq_s", -1}, {"par.engine_w1_s", 1}, {"par.engine_w2_s", 2}} {
		v, err := rounds(func() (float64, error) {
			t0 := time.Now()
			for _, x := range variants() {
				x.Scale, x.Workers = apps.Paper, c.workers
				if _, err := x.Run(); err != nil {
					return 0, err
				}
			}
			return time.Since(t0).Seconds(), nil
		})
		if err != nil {
			return err
		}
		m[c.name] = v
	}
	return nil
}

// collectiveUnits is host time per simulated collective call, on the DAS
// shape at the paper's Section 6 point (10 ms, 1 MB/s).
func collectiveUnits(m map[string]float64) error {
	const reps, opsPerRep = 10, 4
	params := network.DefaultParams().WithWAN(10*sim.Millisecond, 1e6)
	for _, c := range []struct {
		name  string
		style collective.Style
	}{{"collective.flat_us_per_op", collective.Flat}, {"collective.hier_us_per_op", collective.Hierarchical}} {
		v, err := rounds(func() (float64, error) {
			t0 := time.Now()
			_, err := par.Run(topology.DAS(), params, core.DefaultSeed, func(e *par.Env) {
				comm := collective.New(e, c.style)
				data := make([]float64, 64)
				segs := make([][]float64, e.Size())
				for i := range segs {
					segs[i] = data[:8]
				}
				for r := 0; r < reps; r++ {
					comm.Bcast(0, data)
					comm.Allreduce(data, collective.Sum)
					comm.Alltoall(segs)
					comm.Barrier()
				}
			})
			return float64(time.Since(t0).Microseconds()) / (reps * opsPerRep), err
		})
		if err != nil {
			return err
		}
		m[c.name] = v
	}
	return nil
}

func appUnits(m map[string]float64) error {
	for _, c := range []struct {
		name  string
		iters int
		fn    func(int) int64
	}{
		{"apps.water_ns_per_pair", 100, water.BenchForcePairs},
		{"apps.fft_ns_per_butterfly", 50, fft.BenchButterflies},
		{"apps.asp_ns_per_row", 1, asp.BenchRowRelaxations},
		{"apps.barneshut_ns_per_interaction", 100, barneshut.BenchTreeForce},
		{"apps.tsp_ns_per_node", 1, tsp.BenchNodeExpansions},
		{"apps.awari_ns_per_state", 100, awari.BenchStateExpansions},
	} {
		v, err := rounds(func() (float64, error) {
			t0 := time.Now()
			ops := c.fn(c.iters)
			return float64(time.Since(t0)) / float64(ops), nil
		})
		if err != nil {
			return err
		}
		m[c.name] = v
	}
	return nil
}

// analyticUnits prices the solvers on one recorded graph — Awari
// (optimized) at Small, the largest of the eleven and one the matched
// engine exists for — and the recorder against the run it rides on.
func analyticUnits(m map[string]float64) error {
	app, err := core.AppByName("Awari")
	if err != nil {
		return err
	}
	x := core.Experiment{App: app, Scale: apps.Small, Optimized: true,
		Topo: topology.DAS(), Params: core.ReferenceParams(), Workers: -1}
	var g *analytic.Graph
	m["analytic.record_overhead_pct"], err = overheadPct(
		func() error { _, err := x.Run(); return err },
		func() (err error) {
			var fail *core.CellFailure
			g, fail, err = core.NewRunCache().RecordedGraph("unit", x, nil)
			if err == nil && fail != nil {
				err = fail.Err
			}
			return err
		})
	if err != nil {
		return err
	}
	m["analytic.graph_bytes_per_op"] = float64(g.MemoryBytes()) / float64(g.Nodes())

	var grid []network.Params
	for _, lat := range core.HeatmapLatencies(8) {
		for _, bw := range core.HeatmapBandwidths(8) {
			grid = append(grid, network.DefaultParams().WithWAN(lat, bw))
		}
	}
	ev := analytic.NewEval(g)
	pointOps := float64(len(grid) * g.Nodes())
	for _, c := range []struct {
		name  string
		scale float64
		fn    func()
	}{
		{"analytic.solve_ns_per_op", 1 / pointOps, func() {
			for _, p := range grid {
				ev.Solve(p)
			}
		}},
		{"analytic.batch_ns_per_point_op", 1 / pointOps, func() { ev.SolveBatch(grid) }},
		{"analytic.matched_us_per_point", 1e-3 / float64(len(grid)), func() {
			for _, p := range grid {
				ev.SolveMatched(p)
			}
		}},
	} {
		v, _ := rounds(func() (float64, error) {
			t0 := time.Now()
			c.fn()
			return float64(time.Since(t0)) * c.scale, nil
		})
		m[c.name] = v
	}
	return nil
}

// cacheUnits prices the run cache on one tiny experiment: key derivation,
// a memory hit, a disk hit (Reset drops memory and keeps the directory),
// and a store — a miss into a directory minus the same miss into a
// memory-only cache, over keys that never repeat.
func cacheUnits(m map[string]float64, dir string) error {
	app, err := core.AppByName("TSP")
	if err != nil {
		return err
	}
	x := core.Experiment{App: app, Scale: apps.Tiny, Topo: topology.DAS(), Params: core.ReferenceParams(), Workers: -1}
	cache, err := diskCache(dir)
	if err != nil {
		return err
	}
	if _, err := x.RunCached(cache); err != nil {
		return err
	}
	perOp := func(n int, fn func(i int) error) (float64, error) {
		return rounds(func() (float64, error) {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := fn(i); err != nil {
					return 0, err
				}
			}
			return float64(time.Since(t0)) / float64(n), nil
		})
	}
	var sink core.RunKey
	if m["core.key_ns"], err = perOp(100_000, func(int) error { sink = x.Key(); return nil }); err != nil {
		return err
	}
	_ = sink
	if m["core.cache_mem_hit_ns"], err = perOp(100_000, func(int) error { _, err := x.RunCached(cache); return err }); err != nil {
		return err
	}
	disk, err := perOp(500, func(int) error { cache.Reset(); _, err := x.RunCached(cache); return err })
	if err != nil {
		return err
	}
	m["core.cache_disk_hit_us"] = disk / 1e3

	fresh := 0 // every miss needs a key no earlier round used
	miss := func(c *core.RunCache) func(int) error {
		return func(int) error {
			fresh++
			y := x
			y.Params.WANLatency += sim.Time(fresh)
			_, err := y.RunCached(c)
			return err
		}
	}
	stored, err := perOp(200, miss(cache))
	if err != nil {
		return err
	}
	unstored, err := perOp(200, miss(core.NewRunCache()))
	if err != nil {
		return err
	}
	m["core.cache_store_us"] = max(stored-unstored, 0) / 1e3
	return nil
}

func wantopoUnits(m map[string]float64) error {
	torus, err := rounds(func() (float64, error) {
		t0 := time.Now()
		_, err := wantopo.Parse("torus:8x8", 64)
		return float64(time.Since(t0).Nanoseconds()) / 1e3, err
	})
	if err != nil {
		return err
	}
	m["wantopo.torus64_build_us"] = torus
	m["wantopo.minmpl64_build_ms"], err = rounds(func() (float64, error) {
		t0 := time.Now()
		_, err := wantopo.MinMPL(64, 4, 1)
		return float64(time.Since(t0).Nanoseconds()) / 1e6, err
	})
	return err
}

// traceUnits is the streaming trace sink's cost on the all-to-all-heavy
// FFT at Small, both arms on the sequential engine (a trace forces it).
func traceUnits(m map[string]float64) error {
	app, err := core.AppByName("FFT")
	if err != nil {
		return err
	}
	// One run is a few milliseconds; twenty make a sample the scheduler's
	// jitter does not dominate.
	const runs = 20
	repeat := func(sink func() trace.Sink) func() error {
		return func() error {
			for i := 0; i < runs; i++ {
				x := core.Experiment{App: app, Scale: apps.Small, Topo: topology.DAS(),
					Params: network.DefaultParams(), Workers: -1, Trace: sink()}
				if _, err := x.Run(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	m["trace.stream_overhead_pct"], err = overheadPct(
		repeat(func() trace.Sink { return nil }),
		repeat(func() trace.Sink { return trace.NewStream(topology.DAS().Procs()) }))
	return err
}

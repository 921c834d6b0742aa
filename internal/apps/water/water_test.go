package water

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"twolayer/internal/apps"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
)

func TestHalfTargetsPartition(t *testing.T) {
	// Every unordered block pair (i, j), i != j, must be computed by
	// exactly one rank.
	for _, p := range []int{1, 2, 3, 4, 5, 8, 16, 32} {
		owner := make(map[[2]int]int)
		for r := 0; r < p; r++ {
			for _, j := range halfTargets(r, p) {
				a, b := r, j
				if a > b {
					a, b = b, a
				}
				owner[[2]int{a, b}]++
			}
		}
		want := p * (p - 1) / 2
		if len(owner) != want {
			t.Errorf("p=%d: %d pairs covered, want %d", p, len(owner), want)
		}
		for pair, cnt := range owner {
			if cnt != 1 {
				t.Errorf("p=%d: pair %v computed %d times", p, pair, cnt)
			}
		}
	}
}

func TestNeedersInverse(t *testing.T) {
	f := func(pRaw uint8) bool {
		p := int(pRaw%31) + 1
		for j := 0; j < p; j++ {
			for _, i := range neederTable(p)[j] {
				found := false
				for _, tgt := range halfTargets(i, p) {
					if tgt == j {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestNeederTableMatchesInversionNoAlloc pins the memoized table to the
// definition it replaced — invert halfTargets by scanning every rank, in
// ascending order (coordinators forward in that order, so it is part of the
// simulated timing) — and gates its cost: after first use a lookup
// allocates nothing.
func TestNeederTableMatchesInversionNoAlloc(t *testing.T) {
	for p := 1; p <= 130; p++ {
		table := neederTable(p)
		if len(table) != p {
			t.Fatalf("p=%d: table has %d entries", p, len(table))
		}
		for j := 0; j < p; j++ {
			var want []int
			for i := 0; i < p; i++ {
				for _, tgt := range halfTargets(i, p) {
					if tgt == j {
						want = append(want, i)
					}
				}
			}
			if !slices.Equal(table[j], want) {
				t.Fatalf("p=%d j=%d: needers %v, want %v", p, j, table[j], want)
			}
		}
	}
	var sink int
	if n := testing.AllocsPerRun(100, func() {
		for j := 0; j < 128; j++ {
			sink += len(neederTable(128)[j])
		}
	}); n != 0 {
		t.Errorf("neederTable allocates %.0f times per 128 lookups after first use, want 0", n)
	}
	_ = sink
}

// TestNeederTableConcurrent is the sweep's access pattern: cells on every
// core ask for the same few tables at once (run under -race).
func TestNeederTableConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range []int{131, 132, 32, 131} {
				if got := len(neederTable(p)); got != p {
					t.Errorf("p=%d: table has %d entries", p, got)
				}
			}
		}()
	}
	wg.Wait()
}

func TestBlockPartition(t *testing.T) {
	w := New(ConfigFor(apps.Tiny), 7)
	covered := 0
	for r := 0; r < 7; r++ {
		lo, hi := w.blockOf(r)
		covered += hi - lo
		if lo > hi {
			t.Errorf("rank %d block [%d,%d)", r, lo, hi)
		}
	}
	if covered != w.cfg.N {
		t.Errorf("blocks cover %d of %d", covered, w.cfg.N)
	}
}

func runWater(t *testing.T, topo *topology.Topology, optimized bool) par.Result {
	t.Helper()
	w := New(ConfigFor(apps.Tiny), topo.Procs())
	res, err := par.Run(topo, network.DefaultParams(), 11, w.Job(optimized))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWaterCorrectAllVariants(t *testing.T) {
	topos := []*topology.Topology{
		topology.SingleCluster(1),
		topology.SingleCluster(4),
		topology.MustUniform(2, 2),
		topology.MustUniform(2, 3),
		topology.DAS(),
	}
	for _, topo := range topos {
		for _, opt := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/opt=%v", topo, opt), func(t *testing.T) {
				runWater(t, topo, opt)
			})
		}
	}
}

func TestOptimizedReducesWANTraffic(t *testing.T) {
	w1 := New(ConfigFor(apps.Small), 32)
	r1, err := par.Run(topology.DAS(), network.DefaultParams(), 11, w1.Job(false))
	if err != nil {
		t.Fatal(err)
	}
	w2 := New(ConfigFor(apps.Small), 32)
	r2, err := par.Run(topology.DAS(), network.DefaultParams(), 11, w2.Job(true))
	if err != nil {
		t.Fatal(err)
	}
	if r2.WAN.Bytes >= r1.WAN.Bytes {
		t.Errorf("optimized WAN bytes %d should be below unoptimized %d", r2.WAN.Bytes, r1.WAN.Bytes)
	}
	if r2.WAN.Messages >= r1.WAN.Messages {
		t.Errorf("optimized WAN messages %d should be below unoptimized %d", r2.WAN.Messages, r1.WAN.Messages)
	}
}

func TestOptimizedWinsOnSlowWAN(t *testing.T) {
	slow := network.DefaultParams().WithWAN(30*sim.Millisecond, 0.3e6)
	elapsed := func(opt bool) sim.Time {
		w := New(ConfigFor(apps.Small), 32)
		res, err := par.Run(topology.DAS(), slow, 11, w.Job(opt))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Check(); err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	unopt, opt := elapsed(false), elapsed(true)
	if opt >= unopt {
		t.Errorf("optimized (%v) should beat unoptimized (%v) on a slow WAN", opt, unopt)
	}
}

func TestUnoptimizedWANMessageShare(t *testing.T) {
	// Paper: with 4 clusters, 75% of Water's messages are inter-cluster.
	w := New(ConfigFor(apps.Small), 32)
	res, err := par.Run(topology.DAS(), network.DefaultParams(), 11, w.Job(false))
	if err != nil {
		t.Fatal(err)
	}
	// Count only the application's messages: per iteration each rank sends
	// p/2 pull requests, p/2 block replies, and p/2 force updates; ~3/4 of
	// them cross clusters.
	total := int64(3*32*16) * int64(w.cfg.Iters)
	share := float64(res.WAN.Messages) / float64(total)
	if share < 0.65 || share > 0.85 {
		t.Errorf("inter-cluster message share = %.2f, expected ~0.75", share)
	}
}

func TestInfoMetadata(t *testing.T) {
	if Info.Name != "Water" || !Info.HasOptimized {
		t.Errorf("Info = %+v", Info)
	}
	inst := Info.New(apps.Tiny, 4)
	if _, err := par.Run(topology.MustUniform(2, 2), network.DefaultParams(), 1, inst.Job(true)); err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(); err != nil {
		t.Fatal(err)
	}
}

// recvCounter is a trace sink that counts the messages each rank receives.
type recvCounter struct{ recv []int }

func (c *recvCounter) RecordMessage(m trace.Message)        { c.recv[m.Dst]++ }
func (c *recvCounter) RecordSpan(trace.Span)                {}
func (c *recvCounter) RecordTransport(trace.TransportStats) {}

func TestFixedCoordinatorsCorrectButConcentrated(t *testing.T) {
	slow := network.DefaultParams().WithWAN(3300*sim.Microsecond, 0.95e6)
	hotspot := func(fixedCoord bool) int {
		cfg := ConfigFor(apps.Small)
		cfg.FixedCoordinators = fixedCoord
		w := New(cfg, 32)
		tr := &recvCounter{recv: make([]int, 32)}
		_, err := par.RunWith(topology.DAS(), par.Options{Params: slow, Seed: 11, Trace: tr},
			w.Job(true))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Check(); err != nil {
			t.Fatal(err)
		}
		max := 0
		for _, v := range tr.recv {
			if v > max {
				max = v
			}
		}
		return max
	}
	fixed, spread := hotspot(true), hotspot(false)
	// Concentrating the coordination must create a message hotspot that
	// round-robin placement avoids — the reason the optimization spreads
	// the role.
	if fixed <= spread {
		t.Errorf("fixed coordinators should concentrate traffic: max %d vs %d messages on one rank",
			fixed, spread)
	}
}

// TestMomentumConservation: with symmetric pairwise forces, the net force
// on the whole system is ~zero every step, so total momentum is conserved
// by the sequential reference.
func TestMomentumConservation(t *testing.T) {
	f := func(seed int64) bool {
		n := 24
		pos, vel := initialState(n, seed)
		force := make([]Vec3, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				fij := pairForce(pos[i], pos[j])
				force[i] = force[i].Add(fij)
				force[j] = force[j].Sub(fij)
			}
		}
		var net Vec3
		for _, fv := range force {
			net = net.Add(fv)
		}
		_ = vel
		return abs3(net) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func abs3(v Vec3) float64 {
	a := v.X
	if a < 0 {
		a = -a
	}
	b := v.Y
	if b < 0 {
		b = -b
	}
	c := v.Z
	if c < 0 {
		c = -c
	}
	return a + b + c
}

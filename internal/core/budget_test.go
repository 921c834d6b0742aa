package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twolayer/internal/apps"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

// The core budget's contract: compute goroutines never outnumber its slots,
// a task holding more slots than the budget has still runs (so nothing
// deadlocks, whatever the machine size), and the budget's size never moves
// an output byte.

// withBudget swaps the process-wide budget for one of n slots. Tests in this
// package that use it must not run in parallel with other sweeps.
func withBudget(t *testing.T, n int) {
	t.Helper()
	old := cores
	cores = newBudget(n)
	t.Cleanup(func() { cores = old })
}

// computeGauge counts goroutines inside compute() and remembers the peak.
type computeGauge struct{ running, peak atomic.Int32 }

func (g *computeGauge) compute() {
	storeMax(&g.peak, g.running.Add(1))
	time.Sleep(200 * time.Microsecond)
	g.running.Add(-1)
}

func storeMax(a *atomic.Int32, v int32) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// cell is a sweep cell that computes.
func (g *computeGauge) cell(int) error {
	g.compute()
	return nil
}

// TestBudgetFollowsGOMAXPROCS: the budget runs one cell per core Go
// schedules goroutines on, as many as the slab sets internal/par parks,
// not one per CPU. CI runs it under GOMAXPROCS=1 as well.
func TestBudgetFollowsGOMAXPROCS(t *testing.T) {
	if n := runtime.GOMAXPROCS(0); cores.size != n {
		t.Errorf("core budget has %d slots, GOMAXPROCS is %d", cores.size, n)
	}
}

func TestBudgetBoundsComputeGoroutines(t *testing.T) {
	const slots = 3
	withBudget(t, slots)
	var g computeGauge
	// Two sweeps at once share the one budget.
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := forEach(40, g.cell); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := g.peak.Load(); p > slots {
		t.Errorf("%d compute goroutines in flight, budget has %d slots", p, slots)
	}
	if cores.free != slots {
		t.Errorf("%d of %d slots free after the sweeps: slots leaked", cores.free, slots)
	}
}

// TestBudgetOneSlotNoDeadlock is a one-core machine: every task asks for
// the two slots a recording holds and gets the only one.
func TestBudgetOneSlotNoDeadlock(t *testing.T) {
	withBudget(t, 1)
	var g computeGauge
	done := make(chan error, 1)
	go func() { done <- forEachHolding(recordingSlots, 8, nil, nil, g.cell) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep on a one-slot budget did not finish")
	}
	if p := g.peak.Load(); p != 1 {
		t.Errorf("%d compute goroutines in flight on a one-slot budget", p)
	}
	if cores.free != 1 {
		t.Errorf("%d of 1 slots free after the sweep: slots leaked", cores.free)
	}
}

// TestForEachHoldingReusesWorkers: a call's tasks run on no more workers
// than the budget runs at once, start in weight order on one slot and on
// two, and a nested call runs inline on the worker that made it.
func TestForEachHoldingReusesWorkers(t *testing.T) {
	const slots, n = 2, 40
	withBudget(t, slots)
	var mu sync.Mutex
	outer := map[uint64]bool{}
	var inner []uint64
	err := forEachHolding(1, n, nil, nil, func(i int) error {
		id := goid()
		mu.Lock()
		outer[id] = true
		mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		if i != 0 {
			return nil
		}
		return forEach(3, func(int) error {
			mu.Lock()
			inner = append(inner, goid())
			mu.Unlock()
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outer) > slots {
		t.Errorf("%d tasks ran on %d workers; the budget runs %d at once", n, len(outer), slots)
	}
	if len(inner) != 3 {
		t.Errorf("%d of 3 nested tasks ran", len(inner))
	}
	for _, id := range inner {
		if !outer[id] {
			t.Errorf("nested task ran on goroutine %d, not on an outer worker", id)
		}
	}
	if cores.free != slots {
		t.Errorf("%d of %d slots free after the call: slots leaked", cores.free, slots)
	}

	// Workers claim tasks in weight order, heaviest first, ties in index
	// order. On two slots each task returns only once the task after it has
	// started, so one worker claims while the other waits inside its task,
	// and the start order is the claim order. On one slot, one worker runs
	// the whole call.
	weight := func(i int) float64 { return float64((i * 7) % 11) }
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool { return weight(want[a]) > weight(want[b]) })
	pos := make([]int, n)
	for p, i := range want {
		pos[i] = p
	}
	for _, slots := range []int{2, 1} {
		withBudget(t, slots)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		begun := make([]chan struct{}, n+1)
		for p := range begun {
			begun[p] = make(chan struct{})
		}
		close(begun[n])
		var started []int
		ids := map[uint64]bool{}
		err := forEachWeighted(n, weight, func(i int) string { return fmt.Sprint("task ", i) }, func(i int) error {
			mu.Lock()
			started = append(started, i)
			ids[goid()] = true
			mu.Unlock()
			close(begun[pos[i]])
			if slots == 1 {
				return nil
			}
			select {
			case <-begun[pos[i]+1]:
				return nil
			case <-ctx.Done():
				return errors.New("the next task never started")
			}
		})
		cancel()
		if err != nil {
			t.Fatalf("%d slots: %v", slots, err)
		}
		if !slices.Equal(started, want) {
			t.Errorf("%d slots: tasks started in order %v, want weight order %v", slots, started, want)
		}
		if len(ids) != slots {
			t.Errorf("%d slots: %d tasks ran on %d workers", slots, n, len(ids))
		}
	}
}

// TestForEachNestedNoDeadlock: tasks that hold every slot and call forEach
// themselves finish, each nested call inline on its caller's slot. Of 40
// tasks on a two-slot budget every tenth nests, and the nesting ones meet
// in pairs first, so both slots are held by nesting tasks when they nest:
// when nested calls waited for slots of their own, this sweep waited in
// acquire forever.
func TestForEachNestedNoDeadlock(t *testing.T) {
	const slots = 2
	withBudget(t, slots)
	var g computeGauge
	var nested atomic.Int32
	var meet [2]sync.WaitGroup // tasks 0 and 10, then 20 and 30
	for k := range meet {
		meet[k].Add(2)
	}
	done := make(chan error, 1)
	go func() {
		done <- forEach(40, func(i int) error {
			g.compute()
			if i%10 != 0 {
				return nil
			}
			meet[i/20].Done()
			meet[i/20].Wait()
			return forEach(3, func(int) error {
				nested.Add(1)
				g.compute()
				return nil
			})
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("nested forEach on a two-slot budget did not finish")
	}
	if n := nested.Load(); n != 12 {
		t.Errorf("%d of 12 nested tasks ran", n)
	}
	if p := g.peak.Load(); p > slots {
		t.Errorf("%d compute goroutines in flight, budget has %d slots", p, slots)
	}
	if cores.free != slots {
		t.Errorf("%d of %d slots free after the sweep: slots leaked", cores.free, slots)
	}
}

// sweepBytes renders a simulated grid, an analytic lattice and the
// multi-hop study, each from a cold private cache.
func sweepBytes(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	panels, err := Figure3(apps.Tiny, Figure3Options{
		Apps:      []string{"Water", "ASP"},
		Latencies: []sim.Time{Latencies[0], Latencies[3], Latencies[6]}, Bandwidths: []float64{Bandwidths[0], Bandwidths[5]},
		Cache: NewRunCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "%+v\n", panels)
	heat, reports, err := Heatmap(apps.Tiny, HeatmapOptions{Size: 12, Apps: []string{"Water", "TSP"}, Cache: NewRunCache()})
	if err != nil {
		t.Fatal(err)
	}
	WriteHeatmapCSV(&out, heat)
	fmt.Fprintf(&out, "%+v\n", reports)
	points, err := TopologyStudy(TopologyStudyConfig{
		Scale: apps.Tiny, Apps: []string{"Water", "ASP"}, Procs: 16,
		Clusters: []int{4, 8}, Topologies: []string{"clique", "ring"},
		Cache: NewRunCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	WriteTopologyCSV(&out, points)
	return out.Bytes()
}

// TestSweepOutputIndependentOfBudgetAndWorkers: the sweeps' bytes do not
// depend on how many cells run at once. (In-run workers no longer exist;
// every cell is one sequential kernel.)
func TestSweepOutputIndependentOfBudgetAndWorkers(t *testing.T) {
	withBudget(t, 1)
	want := sweepBytes(t)
	for _, slots := range []int{4, 2} {
		cores = newBudget(slots)
		if got := sweepBytes(t); !bytes.Equal(got, want) {
			t.Errorf("budget %d: output differs from budget 1", slots)
		}
	}
}

// TestCellAllocCap gates what one sweep cell allocates, in bytes — the
// deterministic column: the budget keeps one cell per core in flight, so a
// cell's footprint is multiplied by the machine. Each cap sits well under
// what the cell cost before its fix and well over what it costs now.
func TestCellAllocCap(t *testing.T) {
	for _, c := range []struct {
		app   string
		scale apps.Scale
		topo  *topology.Topology
		capMB float64
		was   string
	}{
		// Set-up per rank is O(p) bytes: inverting halfTargets per lookup
		// made this cell 813 MB at 128 ranks.
		{"Water", apps.Tiny, topology.MustUniform(16, 8), 32, "813 MB"},
		// The merged interactor tree's scratch is pooled between yields,
		// not held per rank, and each rank exports into sets carved once
		// from one backing array at their final capacity.
		{"Barnes-Hut", apps.Paper, topology.DAS(), 1.6, "13.7 MB, then 4.0 / 1.7 MB"},
		// A rank's blocks, contributions and accumulators are made once
		// per run and refilled in place, not rebuilt in maps every step.
		{"Water", apps.Paper, topology.MustUniform(64, 2), 9, "13.2 / 22.5 MB"},
		// A rank sends views of the input rows and writes each transpose
		// into one matrix it never writes after sending, the last one into
		// its rows of the result; one message header per phase.
		{"FFT", apps.Paper, topology.DAS(), 4, "40 MB, then 6.0 MB"},
		// The flat multicast group is built once, and a rank broadcasts its
		// live pivot rows, not snapshots.
		{"ASP", apps.Paper, topology.DAS(), 1.6, "6.6 MB unoptimized, then 2.2 MB"},
		// A rank's values, counters and the published database are sized
		// from the memoized state enumeration, not grown from empty.
		{"Awari", apps.Paper, topology.DAS(), 1.7, "1.24 / 1.56 MB"},
		// The most event-dense cell of the Small sweep: its queued events sit
		// in one recycled slab, not in 256 bucket slices grown from nil.
		{"Awari", apps.Small, topology.DAS(), 2, "2.4 / 3.1 MB"},
		// Each rank's octree arena starts with a 16-node chunk, not a
		// 256-node (43 KB) one for a tree of eight bodies; the export
		// sets are carved once at their final capacity.
		{"Barnes-Hut", apps.Small, topology.DAS(), 0.9, "3.4 MB, then 1.6 / 0.9 MB"},
	} {
		app, err := AppByName(c.app)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []bool{false, true} {
			if opt && !app.HasOptimized {
				continue
			}
			x := Experiment{App: app, Scale: c.scale, Optimized: opt, Topo: c.topo,
				Params: ReferenceParams()}
			if _, err := x.Run(); err != nil { // fill the process-wide memo tables
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := x.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > c.capMB {
				t.Errorf("%s (%s) %v on %v allocates %.1f MB per cell, cap %g MB (was %s)",
					c.app, variantName(opt), c.scale, c.topo, mb, c.capMB, c.was)
			}
		}
	}
}

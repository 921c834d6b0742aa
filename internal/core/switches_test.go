package core

import (
	"os"
	"testing"

	"twolayer/internal/apps"
	"twolayer/internal/sim"
)

// TestSwitchTable prints the coroutine-switch and event-queue accounting of a
// cold Small Figure 3, one row per application (the tables in EXPERIMENTS.md,
// "Write-behind ranks" and "Event queue on a slab"). The counts are exact and
// machine-independent, but the sweep takes seconds, so it only runs on
// request. The slab column is the most events any one kernel has had queued
// so far in the process: a row shows its own application's high-water mark
// only where it raises the row above.
//
//	TWOLAYER_SWITCH_TABLE=1 go test -run TestSwitchTable -v ./internal/core
func TestSwitchTable(t *testing.T) {
	if os.Getenv("TWOLAYER_SWITCH_TABLE") == "" {
		t.Skip("set TWOLAYER_SWITCH_TABLE=1 to print the per-application switch and queue counts")
	}
	t.Logf("%-10s %9s %10s %9s %7s %7s %7s %9s %5s", "app", "switches", "self-wakes",
		"pushes", "active%", "ring%", "far%", "advances", "slab")
	row := func(name string, sw, self uint64, q sim.QueueStats) {
		pushes := q.PushActive + q.PushRing + q.PushFar
		pct := func(n uint64) float64 { return 100 * float64(n) / float64(pushes) }
		t.Logf("%-10s %9d %10d %9d %7.1f %7.1f %7.1f %9d %5d", name, sw, self,
			pushes, pct(q.PushActive), pct(q.PushRing), pct(q.PushFar), q.Advances, q.SlabHigh)
	}
	sw0, self0 := sim.SwitchTotals()
	q0 := sim.QueueTotals()
	swStart, selfStart, qStart := sw0, self0, q0
	for _, a := range Apps() {
		_, err := Figure3(apps.Small, Figure3Options{Apps: []string{a.Name}, Cache: NewRunCache()})
		if err != nil {
			t.Fatal(err)
		}
		sw1, self1 := sim.SwitchTotals()
		q1 := sim.QueueTotals()
		row(a.Name, sw1-sw0, self1-self0, queueSince(q1, q0))
		sw0, self0, q0 = sw1, self1, q1
	}
	row("total", sw0-swStart, self0-selfStart, queueSince(q0, qStart))
}

// queueSince returns the queue traffic counted between two QueueTotals
// snapshots (SlabHigh is a maximum, not a sum: the later one stands).
func queueSince(now, then sim.QueueStats) sim.QueueStats {
	now.PushActive -= then.PushActive
	now.PushRing -= then.PushRing
	now.PushFar -= then.PushFar
	now.Advances -= then.Advances
	return now
}

package core

import (
	"fmt"
	"os"
	"testing"

	"twolayer/internal/apps"
	"twolayer/internal/par"
	"twolayer/internal/sim"
)

// TestSwitchTable prints the coroutine-switch and event-queue accounting of a
// cold Small Figure 3 and of the Small regime study, one row per application
// (the tables in EXPERIMENTS.md, "Write-behind ranks", "Event queue on a
// slab" and "Count before cutting"). The counts are exact and
// machine-independent, but the sweeps take seconds, so they only run on
// request. The slab column is the most events any one kernel has had queued
// so far in the process: a row shows its own application's high-water mark
// only where it raises the row above. The regime rows add the reliable
// transport's retransmission timers: how many were armed, and how many fired
// with nothing to do.
//
//	TWOLAYER_SWITCH_TABLE=1 go test -run TestSwitchTable -v ./internal/core
func TestSwitchTable(t *testing.T) {
	if os.Getenv("TWOLAYER_SWITCH_TABLE") == "" {
		t.Skip("set TWOLAYER_SWITCH_TABLE=1 to print the per-application switch and queue counts")
	}
	type counts struct {
		sw, self uint64
		q        sim.QueueStats
		timers   par.TimerStats
	}
	snapshot := func() counts {
		sw, self := sim.SwitchTotals()
		return counts{sw, self, sim.QueueTotals(), par.TimerTotals()}
	}
	header := fmt.Sprintf("%-11s %9s %10s %9s %7s %7s %7s %7s %9s %5s", "app", "switches", "self-wakes",
		"pushes", "active%", "ring%", "block%", "far%", "advances", "slab")
	row := func(name string, now, then counts, timers bool) {
		q := queueSince(now.q, then.q)
		pushes := q.PushActive + q.PushRing + q.PushBlock + q.PushFar
		pct := func(n uint64) float64 { return 100 * float64(n) / float64(pushes) }
		line := fmt.Sprintf("%-11s %9d %10d %9d %7.1f %7.1f %7.1f %7.1f %9d %5d", name,
			now.sw-then.sw, now.self-then.self, pushes,
			pct(q.PushActive), pct(q.PushRing), pct(q.PushBlock), pct(q.PushFar), q.Advances, q.SlabHigh)
		if timers {
			line += fmt.Sprintf(" %7d %7d", now.timers.Armed-then.timers.Armed, now.timers.Idle-then.timers.Idle)
		}
		t.Log(line)
	}
	section := func(title string, names []string, timers bool, run func(name string) error) {
		t.Log(title)
		if timers {
			t.Logf("%s %7s %7s", header, "armed", "idle")
		} else {
			t.Log(header)
		}
		start := snapshot()
		prev := start
		for _, name := range names {
			if err := run(name); err != nil {
				t.Fatal(err)
			}
			now := snapshot()
			row(name, now, prev, timers)
			prev = now
		}
		row("total", prev, start, timers)
	}
	var fig3Apps []string
	for _, a := range Apps() {
		fig3Apps = append(fig3Apps, a.Name)
	}
	section("cold Small Figure 3", fig3Apps, false, func(name string) error {
		_, err := Figure3(apps.Small, Figure3Options{Apps: []string{name}, Cache: NewRunCache()})
		return err
	})
	section("Small regime study", RegimeStudyConfig{}.withDefaults().Apps, true, func(name string) error {
		_, err := RegimeStudy(RegimeStudyConfig{Scale: apps.Small, Apps: []string{name}, Cache: NewRunCache()})
		return err
	})
}

// queueSince returns the queue traffic counted between two QueueTotals
// snapshots (SlabHigh is a maximum, not a sum: the later one stands).
func queueSince(now, then sim.QueueStats) sim.QueueStats {
	now.PushActive -= then.PushActive
	now.PushRing -= then.PushRing
	now.PushBlock -= then.PushBlock
	now.PushFar -= then.PushFar
	now.Advances -= then.Advances
	return now
}

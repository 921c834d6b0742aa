package core

import (
	"os"
	"testing"

	"twolayer/internal/apps"
	"twolayer/internal/sim"
)

// TestSwitchTable prints the coroutine-switch accounting of a cold Small
// Figure 3, one row per application (the table in EXPERIMENTS.md, "Write-
// behind ranks"). The counts are exact and machine-independent, but the
// sweep takes seconds, so it only runs on request:
//
//	TWOLAYER_SWITCH_TABLE=1 go test -run TestSwitchTable -v ./internal/core
func TestSwitchTable(t *testing.T) {
	if os.Getenv("TWOLAYER_SWITCH_TABLE") == "" {
		t.Skip("set TWOLAYER_SWITCH_TABLE=1 to print the per-application switch counts")
	}
	var sumSwitches, sumSelf uint64
	for _, a := range Apps() {
		sw0, self0 := sim.SwitchTotals()
		_, err := Figure3(apps.Small, Figure3Options{Apps: []string{a.Name}, Cache: NewRunCache()})
		if err != nil {
			t.Fatal(err)
		}
		sw1, self1 := sim.SwitchTotals()
		t.Logf("%-10s switches %9d  self-wakes %9d", a.Name, sw1-sw0, self1-self0)
		sumSwitches += sw1 - sw0
		sumSelf += self1 - self0
	}
	t.Logf("%-10s switches %9d  self-wakes %9d", "total", sumSwitches, sumSelf)
}

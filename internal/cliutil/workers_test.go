package cliutil

import (
	"testing"

	"twolayer/internal/core"
)

func TestApplyWorkers(t *testing.T) {
	old := core.DefaultWorkers()
	t.Cleanup(func() { core.SetDefaultWorkers(old) })

	// What each accepted flag value leaves as the in-run worker default:
	// -1 (budgeted, the CLI default) and 0 both mean no window workers.
	for _, c := range []struct{ flag, want int }{{-1, 0}, {0, 0}, {1, 1}, {4, 4}} {
		core.SetDefaultWorkers(7)
		if err := ApplyWorkers(c.flag); err != nil {
			t.Errorf("ApplyWorkers(%d): %v", c.flag, err)
		}
		if got := core.DefaultWorkers(); got != c.want {
			t.Errorf("ApplyWorkers(%d) left %d in-run workers, want %d", c.flag, got, c.want)
		}
	}

	// Below -1 is flag misuse and must leave the default alone.
	core.SetDefaultWorkers(7)
	for _, bad := range []int{-2, -7} {
		if err := ApplyWorkers(bad); err == nil {
			t.Errorf("ApplyWorkers(%d) accepted", bad)
		}
	}
	if got := core.DefaultWorkers(); got != 7 {
		t.Errorf("a rejected value changed the default to %d", got)
	}
}

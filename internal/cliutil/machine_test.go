package cliutil

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"twolayer/internal/apps"
	"twolayer/internal/par"
)

func TestScale(t *testing.T) {
	for _, c := range []struct {
		name string
		want apps.Scale
		ok   bool
	}{
		{"tiny", apps.Tiny, true},
		{"small", apps.Small, true},
		{"paper", apps.Paper, true},
		{"", 0, false},
		{"Paper", 0, false},
		{"huge", 0, false},
	} {
		got, err := Scale(c.name)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("Scale(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
		// A refusal names the flag and lists the valid scales.
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "-scale") ||
			!strings.Contains(err.Error(), "tiny, small or paper")) {
			t.Errorf("Scale(%q): err = %v, want a -scale error naming the valid scales", c.name, err)
		}
	}
}

func TestMachine(t *testing.T) {
	for _, c := range []struct {
		clusters, perCluster int
		ok                   bool
	}{
		{4, 8, true}, {1, 1, true}, {3, 2, true},
		{0, 8, false}, {-1, 8, false}, {4, 0, false}, {4, -2, false},
	} {
		topo, err := Machine(c.clusters, c.perCluster)
		if c.ok && (err != nil || topo.Clusters() != c.clusters || topo.Procs() != c.clusters*c.perCluster) {
			t.Errorf("Machine(%d, %d) = %v, %v", c.clusters, c.perCluster, topo, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "-clusters") || !strings.Contains(err.Error(), "-percluster")) {
			t.Errorf("Machine(%d, %d): err = %v, want an error naming both flags", c.clusters, c.perCluster, err)
		}
	}
}

func TestExitFor(t *testing.T) {
	refusal := fmt.Errorf("core: a run: %w", &par.Unsupported{A: par.Record, B: par.Regime})
	if got := ExitFor(refusal); got != ExitUsage {
		t.Errorf("ExitFor(wrapped *par.Unsupported) = %d, want %d", got, ExitUsage)
	}
	if got := ExitFor(errors.New("disk full")); got != ExitHarness {
		t.Errorf("ExitFor(other) = %d, want %d", got, ExitHarness)
	}
}

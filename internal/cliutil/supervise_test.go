package cliutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twolayer/internal/apps"
	"twolayer/internal/core"
	"twolayer/internal/network"
	"twolayer/internal/topology"
)

func TestPolicy(t *testing.T) {
	for _, c := range []struct {
		name   string
		s      Supervision
		policy bool
		ok     bool
	}{
		{"defaults", Supervision{}, false, true},
		{"event budget", Supervision{MaxEvents: 10}, true, true},
		{"negative virtual-time budget beside an event budget", Supervision{MaxVirtual: -1, MaxEvents: 10}, false, false},
		{"deadline", Supervision{Deadline: time.Hour}, true, true},
		{"negative deadline", Supervision{Deadline: -time.Second}, false, false},
		{"negative window", Supervision{ProgressWindow: -1}, false, false},
	} {
		pol, cleanup, err := c.s.Policy()
		cleanup()
		if (err == nil) != c.ok || (pol != nil) != c.policy {
			t.Errorf("%s: policy %v, err %v; want policy=%v ok=%v", c.name, pol != nil, err, c.policy, c.ok)
		}
		if pol != nil && pol.Budget.MaxEvents != uint64(c.s.MaxEvents) {
			t.Errorf("%s: policy event budget %d, want %d", c.name, pol.Budget.MaxEvents, c.s.MaxEvents)
		}
	}
}

// TestReportCache: one line, the graph counters only when a graph was
// looked up, and nothing for an untouched cache.
func TestReportCache(t *testing.T) {
	var b strings.Builder
	ReportCache(&b, core.NewRunCache())
	if b.String() != "" {
		t.Errorf("untouched cache printed %q", b.String())
	}
	app, err := core.AppByName("TSP")
	if err != nil {
		t.Fatal(err)
	}
	x := core.Experiment{App: app, Scale: apps.Tiny, Topo: topology.DAS(), Params: network.DefaultParams()}
	c := core.NewRunCache()
	for range 2 {
		if _, err := x.RunCached(c); err != nil {
			t.Fatal(err)
		}
	}
	b.Reset()
	ReportCache(&b, c)
	if want := "run cache: 1 memory hits, 0 disk hits, 1 simulated, 0 stale\n"; b.String() != want {
		t.Errorf("got %q, want %q", b.String(), want)
	}
	if _, _, err := c.RecordedGraph("TSP", x, nil); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	ReportCache(&b, c)
	if got := b.String(); !strings.HasPrefix(got, "run cache: ") || !strings.HasSuffix(got, "; graphs: 0 memory hits, 0 disk hits, 1 recorded\n") || strings.Count(got, "\n") != 1 {
		t.Errorf("with a recorded graph: %q", got)
	}
}

// TestWriteFileAtomicMode: the artifact is readable by group and others,
// like a file os.Create makes under the usual umask, not private like the
// temp file it was written through.
func TestWriteFileAtomicMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "a,b\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if m := fi.Mode().Perm(); m != 0o644 {
		t.Errorf("%s has mode %v, want -rw-r--r--", path, m)
	}
}

// TestWriteFileAtomicFailure: when the writer fails, WriteFileAtomic
// returns its error, leaves no temp file behind, and an existing target
// keeps its bytes, even after part of the new content was written.
func TestWriteFileAtomicFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half of the new"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old\n" {
		t.Errorf("target = %q (%v), want its old bytes", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only out.csv", names)
	}
}

// Package cliutil holds the run-supervision plumbing shared by the sweep
// command-line tools (sweep, chaos, figures): the common flags that
// configure budgets, deadlines and the persistent run cache; the
// translation of those flags into a core.RunPolicy and a cache; failure
// and cache reporting; and atomic output writes.
//
// The tools share one exit-code convention:
//
//	0  every sweep cell completed
//	1  harness error (I/O failure, internal error — nothing ran to plan)
//	2  flag misuse
//	3  the sweep completed but some cells FAILED under supervision
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"twolayer/internal/core"
	"twolayer/internal/par"
	"twolayer/internal/sim"
)

// Exit codes of the shared convention.
const (
	ExitOK      = 0
	ExitHarness = 1
	ExitUsage   = 2
	ExitFailed  = 3
)

// ExitFor maps an error from a run or a study to its exit code: ExitUsage
// when the capability table refused the feature combination the flags
// asked for (a *par.Unsupported), ExitHarness otherwise.
func ExitFor(err error) int {
	if errors.As(err, new(*par.Unsupported)) {
		return ExitUsage
	}
	return ExitHarness
}

// Supervision collects the shared supervision flag values after parsing.
type Supervision struct {
	Deadline       time.Duration
	MaxEvents      int64
	MaxVirtual     time.Duration
	ProgressWindow int64
	CacheDir       string
	NoCache        bool
}

// RegisterSupervision installs the shared supervision and run-cache flags
// on the process flag set.
func RegisterSupervision() *Supervision {
	s := &Supervision{}
	flag.DurationVar(&s.Deadline, "deadline", 0,
		"wall-clock budget for the whole sweep; cells cut off by it are recorded as FAILED(deadline) (0 = none)")
	flag.Int64Var(&s.MaxEvents, "max-events", 0,
		"per-run simulation event budget; overruns become FAILED(event-budget) cells (0 = unlimited)")
	flag.DurationVar(&s.MaxVirtual, "max-vtime", 0,
		"per-run virtual-time budget; overruns become FAILED(time-budget) cells (0 = unlimited)")
	flag.Int64Var(&s.ProgressWindow, "progress-window", 0,
		"livelock watchdog: kill a run after this many events without application progress, as FAILED(livelock) (0 = off)")
	flag.StringVar(&s.CacheDir, "cache-dir", "results/cache",
		"persistent run-cache directory; a rerun replays the cells it holds, so an interrupted sweep resumes")
	flag.BoolVar(&s.NoCache, "no-cache", false,
		"persist nothing and resume nothing (runs are still shared in memory)")
	return s
}

// Cache returns core.DefaultCache with the persistent layer at -cache-dir
// attached, or memory-only under -no-cache. A directory that cannot be
// created is reported on stderr and leaves the cache memory-only.
func (s *Supervision) Cache(tool string) *core.RunCache {
	if !s.NoCache {
		if err := core.DefaultCache.SetDir(s.CacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "%s: run cache disabled: %v\n", tool, err)
		}
	}
	return core.DefaultCache
}

// ReportCache writes the cache's one stats line to w (stderr in every
// tool: stdout stays byte-identical across reruns, cache effectiveness
// does not), with the recorded-graph counters when any are set. A cache
// nothing was looked up in prints nothing.
func ReportCache(w io.Writer, c *core.RunCache) {
	s := c.CacheStats()
	if s == (core.CacheStats{}) {
		return
	}
	fmt.Fprintf(w, "run cache: %d memory hits, %d disk hits, %d simulated, %d stale",
		s.Hits, s.DiskHits, s.Misses, s.Stale)
	if s.GraphHits+s.GraphDiskHits+s.GraphMisses > 0 {
		fmt.Fprintf(w, "; graphs: %d memory hits, %d disk hits, %d recorded",
			s.GraphHits, s.GraphDiskHits, s.GraphMisses)
	}
	fmt.Fprintln(w)
}

// Policy builds the core.RunPolicy the parsed flags describe. With every
// flag at its zero default it returns a nil policy — no supervision, the
// historical abort-on-error behaviour. The returned cleanup releases the
// deadline context; call it before exiting (also on the error path).
func (s *Supervision) Policy() (*core.RunPolicy, func(), error) {
	cleanup := func() {}
	if s.Deadline < 0 || s.MaxEvents < 0 || s.MaxVirtual < 0 || s.ProgressWindow < 0 {
		return nil, cleanup, fmt.Errorf("supervision budgets must be non-negative")
	}
	if s.Deadline <= 0 && s.MaxEvents <= 0 && s.MaxVirtual <= 0 && s.ProgressWindow <= 0 {
		return nil, cleanup, nil
	}
	pol := &core.RunPolicy{
		Budget: sim.Budget{
			MaxEvents:      uint64(s.MaxEvents),
			MaxVirtualTime: sim.Time(s.MaxVirtual.Nanoseconds()),
			ProgressWindow: uint64(s.ProgressWindow),
		},
	}
	if s.Deadline > 0 {
		pol.Ctx, cleanup = context.WithTimeout(context.Background(), s.Deadline)
	}
	return pol, cleanup, nil
}

// ReportOutcome renders the policy's failure summary to w and
// returns the exit code encoding the sweep outcome: ExitOK when every cell
// completed, ExitFailed when some were recorded as FAILED. A nil policy is
// always ExitOK. The first failure's full diagnostic dump (per-process
// block reasons, mailbox depths, reliable-channel state) is included; the
// remaining failures get one line each.
func ReportOutcome(w io.Writer, tool string, pol *core.RunPolicy) int {
	fails := pol.Failures()
	if len(fails) == 0 {
		return ExitOK
	}
	fmt.Fprintf(w, "%s: %d sweep cell(s) FAILED under supervision:\n", tool, len(fails))
	for _, f := range fails {
		fmt.Fprintf(w, "  %s\n", f)
	}
	var re *sim.RunError
	if errors.As(fails[0].Err, &re) {
		fmt.Fprintf(w, "\ndiagnostics of the first failure (%s):\n%s", fails[0].Label, re.Report())
	}
	return ExitFailed
}

// WriteFileAtomic writes one output artifact through a temp file and a
// rename, creating parent directories as needed. A crash or a concurrent
// writer can never leave a half-written file at path: readers observe the
// old content or the new, nothing in between.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	err = write(tmp)
	if err == nil {
		// CreateTemp makes the file 0600 and the rename keeps its mode, but
		// an artifact is for everyone to read.
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, path)
	}
	if err != nil {
		os.Remove(name)
	}
	return err
}

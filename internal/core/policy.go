package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"twolayer/internal/par"
	"twolayer/internal/sim"
)

// RunPolicy is the sweep supervision layer: it decides how much a single
// cell may cost (event/virtual-time budgets, a wall-clock deadline via
// Ctx), and turns supervised kills into per-cell failures instead of sweep
// aborts. Resuming after a crash is the run cache's job: a finished cell
// persists there the moment it completes.
//
// A nil *RunPolicy is valid everywhere one is accepted and means "no
// supervision": cells run unbudgeted and any error aborts the sweep, the
// historical behaviour.
type RunPolicy struct {
	// Budget bounds each cell's simulation (see sim.Budget). Zero fields
	// are unlimited.
	Budget sim.Budget
	// Ctx, if non-nil, imposes a wall-clock deadline on the whole sweep:
	// when it expires, in-flight cells stop with a deadline failure and
	// remaining cells fail fast.
	Ctx context.Context

	mu       sync.Mutex
	failures []CellFailure
}

// CellFailure is one sweep cell that a policy gave up on. The sweep itself
// keeps going; its output marks the cell FAILED(Kind).
type CellFailure struct {
	// Label names the cell (application, variant, sweep coordinates).
	Label string
	// Kind is the stable machine-readable reason: one of the sim stop
	// names ("deadlock", "livelock", "event-budget", "time-budget",
	// "deadline") or "retry-cap" for an exhausted reliable channel.
	Kind string
	// Err is the final underlying error, typically a *sim.RunError whose
	// Report method renders the full diagnostic dump.
	Err error
}

func (f CellFailure) String() string {
	return fmt.Sprintf("%s: FAILED(%s)", f.Label, f.Kind)
}

// FailedCell renders the FAILED(reason) marker used for failed cells in
// CSV and table output.
func FailedCell(kind string) string { return "FAILED(" + kind + ")" }

// classifyCellError decides whether an experiment error is a per-cell
// failure (the cell is marked FAILED and the sweep continues) or a harness
// error (the sweep aborts).
func classifyCellError(err error) (kind string, cell bool) {
	// A failed reliable channel surfaces joined with the secondary
	// deadlock it causes, so the transport error is checked first: the
	// root cause names the cell, not the symptom.
	var te *par.TransportError
	if errors.As(err, &te) {
		return "retry-cap", true
	}
	var re *sim.RunError
	if errors.As(err, &re) {
		return re.Kind.String(), true
	}
	return "", false
}

// Failures returns the cells this policy recorded as FAILED, in completion
// order. Sweeps using the same policy share the list.
func (p *RunPolicy) Failures() []CellFailure {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]CellFailure(nil), p.failures...)
}

func (p *RunPolicy) noteFailure(f CellFailure) {
	p.mu.Lock()
	p.failures = append(p.failures, f)
	p.mu.Unlock()
}

// SupervisedRun executes one experiment under the policy, for callers
// outside the sweep layer (the single-run CLI). Semantics are exactly
// run's: result, or *CellFailure for a supervised kill, or a harness
// error. A nil policy degrades to a plain cached run.
func SupervisedRun(p *RunPolicy, label string, x Experiment, cache *RunCache) (par.Result, *CellFailure, error) {
	return p.run(label, x, cache)
}

// run executes one sweep cell under the policy. Exactly one of the three
// returns is meaningful: a result (cell succeeded, possibly served from
// the cache), a *CellFailure (cell FAILED but the sweep continues), or
// an error (harness failure, abort the sweep). A nil policy degrades to a
// plain cached run with no failure handling.
func (p *RunPolicy) run(label string, x Experiment, cache *RunCache) (par.Result, *CellFailure, error) {
	if p == nil {
		res, err := x.RunCached(cache)
		return res, nil, err
	}
	x.Budget = p.Budget
	x.Ctx = p.Ctx
	res, err := x.RunCached(cache)
	if err == nil {
		return res, nil, nil
	}
	kind, cell := classifyCellError(err)
	if !cell {
		return par.Result{}, nil, err
	}
	f := CellFailure{Label: label, Kind: kind, Err: err}
	p.noteFailure(f)
	return par.Result{}, &f, nil
}

package sim

import (
	"context"
	"fmt"
	"strings"
)

// This file is the kernel's supervision layer: per-run budgets, a
// progress watchdog that tells a livelocked protocol apart from a
// legitimately long simulation, and the structured RunError every
// abnormal termination is reported through.
//
// Supervision is pure observation. Budgets never reorder or reprice an
// event; a run that completes within its budgets is bit-identical to the
// same run with no budgets at all, which is why sweep caches may ignore
// them and why golden runs are pinned with budgets off.

// Budget bounds one run. The zero value imposes no limits. A budget bounds
// the processes' work: once every process has finished, no bound fires,
// whatever is still queued.
type Budget struct {
	// MaxVirtualTime aborts the run once simulated time passes it.
	// Zero means unlimited.
	MaxVirtualTime Time
	// MaxEvents aborts the run after firing more than this many events.
	// Zero means unlimited.
	MaxEvents uint64
	// ProgressWindow arms the livelock watchdog: the run is killed when
	// this many consecutive events fire without a NoteProgress call.
	// Upper layers mark application-level progress (a message delivered
	// to a mailbox, a reliable-transport ack advancing a window, a
	// process finishing); a retransmit storm fires timer events forever
	// without ever producing any of those, while a legitimately long run
	// — however slow — keeps delivering. Zero disables the watchdog.
	ProgressWindow uint64
}

// Enabled reports whether any bound is armed.
func (b Budget) Enabled() bool {
	return b.MaxVirtualTime > 0 || b.MaxEvents > 0 || b.ProgressWindow > 0
}

// StopKind classifies why a run terminated abnormally.
type StopKind uint8

const (
	// StopDeadlock: the event queue drained with processes still blocked.
	StopDeadlock StopKind = iota
	// StopEventBudget: Budget.MaxEvents was exceeded.
	StopEventBudget
	// StopTimeBudget: Budget.MaxVirtualTime was exceeded.
	StopTimeBudget
	// StopLivelock: the progress watchdog saw Budget.ProgressWindow
	// events fire without application-level progress.
	StopLivelock
	// StopDeadline: the context passed to RunContext expired or was
	// canceled (the only wall-clock — and therefore machine-dependent —
	// stop reason; everything else is deterministic).
	StopDeadline
)

// String names the stop reason; the names are stable and machine-readable
// (they appear in FAILED(...) cells of sweep CSVs).
func (s StopKind) String() string {
	switch s {
	case StopDeadlock:
		return "deadlock"
	case StopEventBudget:
		return "event-budget"
	case StopTimeBudget:
		return "time-budget"
	case StopLivelock:
		return "livelock"
	case StopDeadline:
		return "deadline"
	}
	return fmt.Sprintf("stop(%d)", uint8(s))
}

// ProcDump is one process's state in a RunError snapshot.
type ProcDump struct {
	Name   string
	State  string // "ready", "running", "blocked" or "done"
	Reason string // block reason; empty unless blocked
}

// DiagSection is one subsystem's diagnostic dump inside a RunError,
// contributed through Kernel.AddDiagnostic (the runtime layer reports
// mailbox depths and reliable-channel state this way).
type DiagSection struct {
	Title string
	Lines []string
}

// RunError is the structured error for every abnormal run termination:
// deadlock, budget kill, watchdog kill, or deadline. Beyond the one-line
// Error string it carries a machine-readable snapshot of the simulation
// at the moment it was stopped; Report renders the full dump.
type RunError struct {
	// Kind is the stop reason.
	Kind StopKind
	// At is the virtual time the run was stopped.
	At Time
	// Events is the number of events fired up to the stop.
	Events uint64
	// SinceProgress is the number of events fired since the last noted
	// application-level progress (meaningful for livelock diagnosis).
	SinceProgress uint64
	// QueueLen is the number of events still pending when the run stopped.
	QueueLen int
	// Detail is a one-line elaboration of the stop reason.
	Detail string
	// Procs snapshots every process's state.
	Procs []ProcDump
	// Sections are subsystem dumps registered with AddDiagnostic.
	Sections []DiagSection
	// Cause is the underlying cause when one exists (for StopDeadline,
	// the context's error, so errors.Is(err, context.DeadlineExceeded)
	// works).
	Cause error
}

// Error renders the one-line summary.
func (e *RunError) Error() string {
	switch e.Kind {
	case StopDeadlock:
		blocked := e.blockedProcs()
		parts := make([]string, 0, len(blocked))
		for _, p := range blocked {
			parts = append(parts, fmt.Sprintf("%s(%s)", p.Name, p.Reason))
		}
		return fmt.Sprintf("sim: deadlock at %v: %d blocked process(es): %s",
			e.At, len(blocked), strings.Join(parts, ", "))
	case StopLivelock:
		return fmt.Sprintf("sim: livelock at %v: %s", e.At, e.Detail)
	case StopDeadline:
		return fmt.Sprintf("sim: run canceled at %v after %d events: %s", e.At, e.Events, e.Detail)
	default:
		return fmt.Sprintf("sim: %s exceeded at %v: %s", e.Kind, e.At, e.Detail)
	}
}

// Unwrap exposes the underlying cause (e.g. context.DeadlineExceeded).
func (e *RunError) Unwrap() error { return e.Cause }

func (e *RunError) blockedProcs() []ProcDump {
	var out []ProcDump
	for _, p := range e.Procs {
		if p.State == "blocked" {
			out = append(out, p)
		}
	}
	return out
}

// Report renders the full diagnostic dump: the stop reason, queue and
// progress counters, every non-finished process with its block reason,
// and each registered subsystem section.
func (e *RunError) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", e.Error())
	fmt.Fprintf(&b, "  kind:            %s\n", e.Kind)
	fmt.Fprintf(&b, "  virtual time:    %v\n", e.At)
	fmt.Fprintf(&b, "  events fired:    %d (%d since last progress)\n", e.Events, e.SinceProgress)
	fmt.Fprintf(&b, "  pending events:  %d\n", e.QueueLen)
	live := 0
	for _, p := range e.Procs {
		if p.State != "done" {
			live++
		}
	}
	fmt.Fprintf(&b, "  processes:       %d total, %d not finished\n", len(e.Procs), live)
	const maxProcLines = 64
	shown := 0
	for _, p := range e.Procs {
		if p.State == "done" {
			continue
		}
		if shown == maxProcLines {
			fmt.Fprintf(&b, "    ... %d more\n", live-shown)
			break
		}
		if p.Reason != "" {
			fmt.Fprintf(&b, "    %s: %s (%s)\n", p.Name, p.State, p.Reason)
		} else {
			fmt.Fprintf(&b, "    %s: %s\n", p.Name, p.State)
		}
		shown++
	}
	for _, s := range e.Sections {
		fmt.Fprintf(&b, "  -- %s --\n", s.Title)
		for _, line := range s.Lines {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}

// SetBudget installs the run's budgets. Call before Run; installing a
// budget never changes the behaviour of a run that completes within it.
func (k *Kernel) SetBudget(b Budget) { k.budget = b }

// NoteProgress marks application-level progress for the livelock
// watchdog (see Budget.ProgressWindow). It is a single store, safe to
// call from any kernel-context hot path, and a no-op in effect when the
// watchdog is unarmed.
func (k *Kernel) NoteProgress() { k.progressAt = k.events }

// AddDiagnostic registers a subsystem dump that will be rendered into any
// RunError this kernel produces. The function is only invoked if the run
// terminates abnormally.
func (k *Kernel) AddDiagnostic(title string, fn func() []string) {
	k.diags = append(k.diags, diagProvider{title: title, fn: fn})
}

type diagProvider struct {
	title string
	fn    func() []string
}

// fail records the first stop condition; later conditions are ignored
// (the first kill is the root cause). The full snapshot is assembled
// once the run loop unwinds, in finishError.
func (k *Kernel) fail(kind StopKind, detail string, cause error) {
	if k.stop != nil {
		return
	}
	k.stop = &RunError{
		Kind:          kind,
		At:            k.now,
		Events:        k.events,
		SinceProgress: k.events - k.progressAt,
		Detail:        detail,
		Cause:         cause,
	}
}

// snapshot fills a RunError's process table, queue length and diagnostic
// sections from the kernel's current state.
func (k *Kernel) snapshot(e *RunError) {
	e.QueueLen = k.queue.Len()
	e.Procs = make([]ProcDump, len(k.procs))
	for i, p := range k.procs {
		d := ProcDump{Name: p.name, State: p.state.String()}
		if p.state == procBlocked {
			d.Reason = p.reason()
		}
		e.Procs[i] = d
	}
	for _, dp := range k.diags {
		e.Sections = append(e.Sections, DiagSection{Title: dp.title, Lines: dp.fn()})
	}
}

// checkBudgets applies the budget and watchdog checks to the event just
// popped (already counted in k.events). It reports whether the run must
// stop; the offending event is then discarded, matching the historical
// event-limit semantics. Once every process has finished the budgets no
// longer fire: what is left in the queue (a stale retransmission timer,
// an ack in flight) cannot make a completed run a failed one.
func (k *Kernel) checkBudgets() bool {
	b := &k.budget
	if b.MaxEvents > 0 && k.events > b.MaxEvents && !k.finished() {
		k.fail(StopEventBudget, fmt.Sprintf("event budget %d exceeded", b.MaxEvents), nil)
		return true
	}
	if b.MaxVirtualTime > 0 && k.now > b.MaxVirtualTime && !k.finished() {
		k.fail(StopTimeBudget, fmt.Sprintf("virtual-time budget %v exceeded", b.MaxVirtualTime), nil)
		return true
	}
	if b.ProgressWindow > 0 && k.events-k.progressAt > b.ProgressWindow && !k.finished() {
		k.fail(StopLivelock, fmt.Sprintf(
			"%d events fired without application-level progress (window %d)",
			k.events-k.progressAt, b.ProgressWindow), nil)
		return true
	}
	// The wall-clock deadline is polled once every 1024 events: cheap
	// enough to vanish on the hot path, frequent enough that a runaway
	// run is stopped within microseconds of real time.
	if k.ctxDone != nil && k.events&1023 == 0 {
		select {
		case <-k.ctxDone:
			k.fail(StopDeadline, "wall-clock deadline: "+k.ctx.Err().Error(), context.Cause(k.ctx))
			return true
		default:
		}
	}
	return false
}

// finished reports whether the kernel has processes and all of them have
// returned.
func (k *Kernel) finished() bool { return len(k.procs) > 0 && k.done == len(k.procs) }

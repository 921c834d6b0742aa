package sim

// Conservative parallel discrete-event execution: a set of kernels — one per
// logical process (LP) — advances in lock-stepped time windows. Within a
// window [T, T+L) every LP runs independently (concurrently, on a worker
// pool); at the window barrier, cross-LP messages generated during the
// window are exchanged. L is the caller's lookahead: the minimum virtual
// delay between a send in one LP and its earliest effect in another. As long
// as every cross-LP interaction honours the lookahead, no LP can receive an
// event in its past, and the execution is equivalent to — and, with a
// deterministic exchange, bit-identical to — running all LPs on one kernel.
//
// The driver is deliberately agnostic about what flows between LPs: the
// CrossExchange implementation (package par's window router) owns buffering,
// deterministic ordering, and injection of cross-LP traffic.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// NextEventTime returns the timestamp of the kernel's earliest pending
// event, or MaxTime if the queue is empty. The window driver uses it to
// compute the next window's start.
func (k *Kernel) NextEventTime() Time {
	if k.queue.Len() == 0 {
		return MaxTime
	}
	return k.queue.Peek()
}

// runWindow drives the kernel until every event strictly before limit has
// fired and every process woken by them has run to its next blocking point.
// Events at or after limit stay queued for a later window. The kernel's
// event order within the window is exactly the order the same events would
// fire in an unlimited run, so windowing never reorders an LP's local
// execution.
func (k *Kernel) runWindow(limit Time) {
	k.limited = true
	k.limit = limit
	for {
		k.step()
		p := k.takeReady()
		if p == nil {
			return
		}
		k.switches++
		p.resume()
	}
}

// CrossExchange moves traffic between LPs at window barriers. The driver
// calls Flush with every LP quiescent, so the implementation may freely
// touch any LP's state; it must inject messages deterministically (same
// order regardless of worker count) and only at times >= the end of the
// window that just ran. Flush returns how many messages it injected.
type CrossExchange interface {
	Flush(windowEnd Time) int
}

// WindowConfig parameterizes RunWindows.
type WindowConfig struct {
	// Lookahead is the conservative horizon L: the minimum virtual delay
	// between a send in one LP and the earliest event it can cause in
	// another. It must be positive; a model with zero cross-LP delay has no
	// exploitable parallelism and must run on a single kernel.
	Lookahead Time
	// Workers bounds the goroutines executing LP windows concurrently.
	// Values below 1 are treated as 1; the effective count never exceeds
	// the number of LPs. The result is bit-identical for every value.
	Workers int
	// Budget bounds the whole run. Event and progress budgets are enforced
	// per LP and, summed across LPs, at every window barrier; the
	// virtual-time budget stops each LP at its first event past the limit,
	// exactly as the sequential kernel would.
	Budget Budget
	// Ctx, if non-nil, imposes a wall-clock deadline (see RunContext).
	Ctx context.Context
}

// windowState tracks barrier-level progress for diagnostics.
type windowState struct {
	index      int    // windows completed
	start, end Time   // bounds of the most recent window
	exchanged  uint64 // cross-LP messages injected at barriers so far
}

// RunWindows drives the LP kernels to completion under the conservative
// time-window protocol. Every kernel must be freshly built (not yet run) and
// all cross-LP traffic must flow through ex with at least cfg.Lookahead of
// virtual delay. Abnormal terminations — deadlock, budget or watchdog kills,
// deadline — are reported as a single aggregated *RunError whose LPs and
// Window fields carry the per-LP queue depths and barrier state.
func RunWindows(lps []*Kernel, ex CrossExchange, cfg WindowConfig) error {
	if cfg.Lookahead <= 0 {
		return fmt.Errorf("sim: RunWindows needs a positive lookahead, got %v", cfg.Lookahead)
	}
	for _, k := range lps {
		if k.ran {
			return fmt.Errorf("sim: kernel ran already")
		}
		k.ran = true
		k.limited = true
		k.budget = cfg.Budget
		if cfg.Ctx != nil {
			k.ctx = cfg.Ctx
			k.ctxDone = cfg.Ctx.Done()
		}
	}
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		for _, k := range lps {
			k.fail(StopDeadline, "wall-clock deadline: "+cfg.Ctx.Err().Error(), context.Cause(cfg.Ctx))
		}
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(lps) {
		workers = len(lps)
	}
	defer func() {
		for _, k := range lps {
			k.addTotals()
		}
	}()

	var w windowState
	for {
		if err := windowStopError(lps, cfg, &w); err != nil {
			return err
		}
		start := MaxTime
		for _, k := range lps {
			if t := k.NextEventTime(); t < start {
				start = t
			}
		}
		if start == MaxTime {
			// All queues drained; anything still buffered in the exchange
			// re-arms the loop.
			if n := ex.Flush(MaxTime); n > 0 {
				w.exchanged += uint64(n)
				continue
			}
			break
		}
		end := start + cfg.Lookahead
		if end <= start {
			end = MaxTime // lookahead overflow: one final unbounded window
		}
		w.index++
		w.start, w.end = start, end
		runLPWindows(lps, end, workers)
		if err := windowStopError(lps, cfg, &w); err != nil {
			return err
		}
		w.exchanged += uint64(ex.Flush(end))
	}

	deadlocked := false
	for _, k := range lps {
		for _, p := range k.procs {
			if p.state != procDone {
				deadlocked = true
			}
		}
	}
	if deadlocked {
		at := Time(0)
		for _, k := range lps {
			if k.now > at {
				at = k.now
			}
		}
		e := &RunError{Kind: StopDeadlock, At: at}
		aggregateSnapshot(e, lps, &w, cfg)
		return e
	}
	return nil
}

// runLPWindows executes one window on every LP. With one worker the LPs run
// in order on the calling goroutine; otherwise a small pool claims LPs off a
// shared counter. Each LP's state is touched only by the goroutine that
// claimed it, and the WaitGroup provides the barrier's memory ordering.
func runLPWindows(lps []*Kernel, limit Time, workers int) {
	if workers <= 1 {
		for _, k := range lps {
			k.runWindow(limit)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(lps) {
					return
				}
				lps[i].runWindow(limit)
			}
		}()
	}
	wg.Wait()
}

// windowStopError checks the aggregate stop conditions at a barrier: any
// per-LP kill (budget, watchdog, deadline), then the run-wide event and
// progress budgets, which individual LPs cannot see. It returns the
// aggregated error, or nil if the run may continue.
func windowStopError(lps []*Kernel, cfg WindowConfig, w *windowState) *RunError {
	// A per-LP kill: take the earliest by (virtual time, LP index) as the
	// root cause — for virtual-time budgets this is exactly the event the
	// sequential kernel would have stopped on.
	var base *RunError
	for _, k := range lps {
		if k.stop != nil && (base == nil || k.stop.At < base.At) {
			base = k.stop
		}
	}
	if base == nil {
		var events, sinceProgress uint64
		for _, k := range lps {
			events += k.events
			sinceProgress += k.events - k.progressAt
		}
		b := &cfg.Budget
		at := Time(0)
		for _, k := range lps {
			if k.now > at {
				at = k.now
			}
		}
		switch {
		case b.MaxEvents > 0 && events > b.MaxEvents:
			base = &RunError{Kind: StopEventBudget, At: at,
				Detail: fmt.Sprintf("event budget %d exceeded", b.MaxEvents)}
		case b.ProgressWindow > 0 && sinceProgress > b.ProgressWindow:
			base = &RunError{Kind: StopLivelock, At: at,
				Detail: fmt.Sprintf(
					"%d events fired without application-level progress (window %d)",
					sinceProgress, b.ProgressWindow)}
		default:
			return nil
		}
	}
	e := &RunError{Kind: base.Kind, At: base.At, Detail: base.Detail, Cause: base.Cause}
	aggregateSnapshot(e, lps, w, cfg)
	return e
}

// aggregateSnapshot fills an aggregated RunError from every LP: summed
// counters, the concatenated process table (LPs hold rank-contiguous
// processes, so concatenation is global rank order), per-LP queue depths,
// window-barrier state, and each LP's diagnostic sections prefixed with its
// LP id.
func aggregateSnapshot(e *RunError, lps []*Kernel, w *windowState, cfg WindowConfig) {
	for i, k := range lps {
		e.Events += k.events
		e.SinceProgress += k.events - k.progressAt
		e.QueueLen += k.queue.Len()
		for _, p := range k.procs {
			d := ProcDump{Name: p.name, State: p.state.String()}
			if p.state == procBlocked {
				d.Reason = p.reason()
			}
			e.Procs = append(e.Procs, d)
		}
		e.LPs = append(e.LPs, LPDump{
			ID: i, Now: k.now, Events: k.events, QueueLen: k.queue.Len(),
			Stopped: k.stop != nil,
		})
		for _, dp := range k.diags {
			e.Sections = append(e.Sections, DiagSection{
				Title: fmt.Sprintf("lp%d %s", i, dp.title), Lines: dp.fn()})
		}
	}
	e.Window = &WindowDump{
		Index: w.index, Start: w.start, End: w.end,
		Lookahead: cfg.Lookahead, Exchanged: w.exchanged,
	}
}

// DefaultWorkers is a sensible window-worker count for one stand-alone run
// on this machine: enough to use a small machine fully, capped because the
// barrier cost grows with the pool. Nothing applies it implicitly — sweeps
// spend their cores on independent cells instead (see core's budget), and
// in-run workers are an explicit request (core.Experiment.Workers).
func DefaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

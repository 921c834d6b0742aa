package sim

import "fmt"

type procState uint8

const (
	procReady procState = iota
	procRunning
	procBlocked
	procDone
)

// String names the state for diagnostic dumps (RunError process tables).
func (s procState) String() string {
	switch s {
	case procReady:
		return "ready"
	case procRunning:
		return "running"
	case procBlocked:
		return "blocked"
	case procDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// BlockExplainer describes why a process is blocked. Passing an explainer
// instead of a string keeps blocking cheap on the hot path: the description
// is only rendered if the simulation deadlocks, so callers with dynamic
// context (e.g. "recv tag 7 from 3") need not format it per block.
type BlockExplainer interface {
	BlockReason() string
}

// Proc is a simulated process: a coroutine whose execution is interleaved
// with the kernel's event loop. All Proc methods must be called from the
// process's own body function; calling them from outside the simulation is
// a programming error.
type Proc struct {
	k    *Kernel
	id   int
	name string

	// resume switches into the coroutine until it blocks or finishes;
	// yield (set by the coroutine itself on first resume) switches back.
	// cancel is iter.Pull's stop function, retained for completeness; the
	// kernel never tears a process down mid-body, matching the semantics
	// of the simulated machines.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	cancel func()

	state       procState
	blockReason string
	blockDetail BlockExplainer
	finishedAt  Time
}

// ID returns the process's kernel-assigned index (spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.Now() }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// FinishedAt returns the virtual time at which the process body returned;
// meaningful only after Kernel.Run completes.
func (p *Proc) FinishedAt() Time { return p.finishedAt }

// reason renders the block reason for deadlock diagnostics.
func (p *Proc) reason() string {
	if p.blockDetail != nil {
		return p.blockDetail.BlockReason()
	}
	return p.blockReason
}

// block suspends the process until some event wakes it via wake. The
// blocking process first drives the event loop inline; if its own wake-up
// is the next thing to run it simply continues, and only otherwise does it
// switch back to the kernel's Run loop to dispatch whichever process was
// woken instead.
func (p *Proc) block(reason string, detail BlockExplainer) {
	p.state = procBlocked
	p.blockReason = reason
	p.blockDetail = detail
	k := p.k
	k.step()
	if k.readyHead < len(k.ready) && k.ready[k.readyHead] == p {
		// Own wake-up came first: continue without any switch.
		k.ready[k.readyHead] = nil
		k.readyHead++
		k.selfWakes++
	} else {
		// Another process (or nothing at all — deadlock or watchdog trip)
		// is next: hand control back to Run.
		p.yield(struct{}{})
	}
	p.state = procRunning
	p.blockReason = ""
	p.blockDetail = nil
}

// wake schedules the process to resume once the current event completes.
// It must be called from kernel context (an event handler), never from
// another process.
func (p *Proc) wake() {
	if p.state != procBlocked {
		panic(fmt.Sprintf("sim: wake of process %q in state %d", p.name, p.state))
	}
	p.k.makeReady(p)
}

// HandleEvent implements EventHandler: a process's scheduled wake-up (spawn,
// sleep) makes it ready. That is application-level progress by
// definition — the simulated program itself is about to run — so the
// livelock watchdog only triggers on storms of pure handler/closure events
// (retransmission timers firing with every process blocked), never on a
// long compute-bound phase. The token is ignored.
func (p *Proc) HandleEvent(uint64) {
	p.k.progressAt = p.k.events
	p.k.makeReady(p)
}

// Sleep parks the process for d of virtual time, modelling computation or
// idle waiting. Non-positive durations return at once.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		return
	}
	p.k.ScheduleCall(p.k.now+d, p, 0)
	p.block("sleep", nil)
}

// Cond is a single-waiter condition a process can block on and that kernel
// events can signal. It is the primitive under mailbox receives.
type Cond struct {
	waiter *Proc
}

// Wait blocks p until a Signal. At most one process may wait on a Cond at a
// time; a second waiter panics, indicating a model bug.
func (c *Cond) Wait(p *Proc, reason string) {
	if c.waiter != nil {
		panic("sim: Cond has a waiter already")
	}
	c.waiter = p
	p.block(reason, nil)
}

// WaitExplained is Wait with a lazily-rendered block reason: detail is only
// consulted if the simulation deadlocks, so hot receive paths need not
// format a reason string per call.
func (c *Cond) WaitExplained(p *Proc, detail BlockExplainer) {
	if c.waiter != nil {
		panic("sim: Cond has a waiter already")
	}
	c.waiter = p
	p.block("", detail)
}

// Signal wakes the waiting process, if any; it resumes once the current
// event completes. Signal must be called from kernel context. It reports
// whether a process was woken.
func (c *Cond) Signal() bool {
	if c.waiter == nil {
		return false
	}
	w := c.waiter
	c.waiter = nil
	w.wake()
	return true
}

// MoveWaiter hands the process blocked on c over to another Cond without
// waking it: it stays parked, its block reason becomes detail, and the next
// Signal on to resumes it. Kernel context only. This is how a process that
// parked for one condition and turns out to need a second one as well
// avoids being switched in just to block again.
func (c *Cond) MoveWaiter(to *Cond, detail BlockExplainer) {
	if c.waiter == nil || to.waiter != nil {
		panic("sim: MoveWaiter needs a waiter on the source Cond and none on the target")
	}
	to.waiter, c.waiter = c.waiter, nil
	to.waiter.blockDetail = detail
}

// Waiting reports whether a process is currently blocked on the Cond.
func (c *Cond) Waiting() bool { return c.waiter != nil }

// HandleEvent implements EventHandler by signalling the Cond: a wake-up can
// be scheduled with Kernel.ScheduleCall(at, cond, 0) instead of a closure,
// keeping timer-driven signals allocation-free. The token is ignored.
func (c *Cond) HandleEvent(uint64) { c.Signal() }

package sim

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sync"
)

// Kernel is a discrete-event simulation engine. Create one with NewKernel,
// add processes with Spawn, then call Run. The zero value is not usable.
//
// A Kernel is single-threaded by construction: events fire one at a time,
// and a woken process runs until it blocks again before the next event
// fires. Code executed inside processes may therefore freely share memory
// with the kernel and with other processes without locking, as long as it
// only runs within the simulation.
//
// Processes are coroutines (iter.Pull), not free-running goroutines:
// control moves between the event loop and a process by direct coroutine
// switch, never through the Go scheduler. A process handoff therefore
// costs on the order of a function call — no channel rendezvous, no
// thread wake-ups — which matters because a large sweep performs millions
// of them. As a further shortcut, a blocking process keeps driving the
// event loop inline until some process other than itself is woken; if its
// own wake-up comes first (common in compute-heavy phases), it continues
// without any switch at all.
type Kernel struct {
	now   Time
	seq   uint64
	queue eventQueue
	procs []*Proc

	// ready holds processes woken by already-fired events, in wake order;
	// readyHead is the dispatch cursor. Draining it before popping the next
	// event preserves the exact interleaving of the classic nested-dispatch
	// scheduler while letting chains of ready processes run back to back.
	ready     []*Proc
	readyHead int
	done      int // processes whose body has returned

	err  error
	ran  bool
	stop *RunError // first budget/watchdog/deadline kill; nil while healthy

	events     uint64 // total events fired, for diagnostics
	switches   uint64 // coroutine resumes by the run loop (full yield -> Run -> resume)
	selfWakes  uint64 // blocks whose own wake-up came first (no switch)
	progressAt uint64 // events counter at the last NoteProgress call
	budget     Budget
	ctx        context.Context // non-nil only under RunContext
	ctxDone    <-chan struct{}
	diags      []diagProvider // subsystem dumps rendered into RunErrors
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Slabs is the storage a kernel's event queue grows to its high-water marks
// over a run: the event slab, the active slot's run and the overflow heap.
// A finished kernel hands it back with TakeSlabs, so that the next kernel
// starts where the last one peaked instead of regrowing from empty. The
// zero value is no storage.
type Slabs struct {
	slab        []event
	active, far []ref
}

// NewKernelWith is NewKernel with its event queue growing into s.
func NewKernelWith(s Slabs) *Kernel {
	k := &Kernel{}
	k.queue.slab, k.queue.active, k.queue.far = s.slab[:0], s.active[:0], s.far[:0]
	return k
}

// TakeSlabs hands over the event queue's storage once Run has returned. It
// reports false, and hands over nothing, if the run stopped with events
// still queued (a budget, watchdog or deadline kill): those slots still
// hold their handlers. A drained queue holds none, since Pop releases each
// one, so the storage pins nothing.
func (k *Kernel) TakeSlabs() (Slabs, bool) {
	q := &k.queue
	if !k.ran || q.size != 0 {
		return Slabs{}, false
	}
	s := Slabs{slab: q.slab, active: q.active, far: q.far}
	q.slab, q.free, q.active, q.activeIdx, q.far = nil, 0, nil, 0, nil
	return s, true
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// EventsFired reports how many events have fired so far; useful for
// measuring simulation effort in benchmarks.
func (k *Kernel) EventsFired() uint64 { return k.events }

// Switches reports how many times the run loop has switched into a
// process coroutine — each one a full yield -> Run -> resume round trip,
// the most expensive step the kernel has. The count is exact and
// machine-independent: a deterministic program switches the same number of
// times on every run.
func (k *Kernel) Switches() uint64 { return k.switches }

// SelfWakes reports how many blocks ended on the inline path: the blocking
// process drove the event loop itself and its own wake-up came first, so
// no coroutine switch was paid.
func (k *Kernel) SelfWakes() uint64 { return k.selfWakes }

// QueueStats reports the event queue's traffic counters so far.
func (k *Kernel) QueueStats() QueueStats { return k.queue.stats }

// Process-wide sums of the per-kernel counters, folded in once per finished
// run: a sweep simulates thousands of short-lived kernels, and its harness
// wants one exact count for all of them.
var totals struct {
	sync.Mutex
	switches, selfWakes uint64
	queue               QueueStats
}

// SwitchTotals returns Switches and SelfWakes summed over every kernel run
// that has finished in this process.
func SwitchTotals() (switches, selfWakes uint64) {
	totals.Lock()
	defer totals.Unlock()
	return totals.switches, totals.selfWakes
}

// QueueTotals returns QueueStats summed over every kernel run that has
// finished in this process — except SlabHigh, which is the largest of them.
func QueueTotals() QueueStats {
	totals.Lock()
	defer totals.Unlock()
	return totals.queue
}

func (k *Kernel) addTotals() {
	q := k.queue.stats
	totals.Lock()
	defer totals.Unlock()
	totals.switches += k.switches
	totals.selfWakes += k.selfWakes
	totals.queue.PushActive += q.PushActive
	totals.queue.PushRing += q.PushRing
	totals.queue.PushBlock += q.PushBlock
	totals.queue.PushFar += q.PushFar
	totals.queue.Advances += q.Advances
	totals.queue.SlabHigh = max(totals.queue.SlabHigh, q.SlabHigh)
}

// Schedule registers fn to run at absolute virtual time at. Scheduling in
// the past panics: it would violate causality and indicates a model bug.
func (k *Kernel) Schedule(at Time, fn func()) { k.ScheduleCall(at, callback(fn), 0) }

// EventHandler is the closure-free form of a scheduled callback: a
// preallocated object dispatched with an integer token. The hot send/deliver
// paths of the network and runtime layers schedule handlers instead of
// closures, so a steady-state message costs no heap allocation; the token
// identifies which pending piece of work (e.g. a pooled message envelope or
// a timer generation) the firing refers to.
type EventHandler interface {
	HandleEvent(token uint64)
}

// ScheduleCall registers h.HandleEvent(token) to run at absolute virtual
// time at. It is Schedule without the closure, and what Schedule and process
// wake-ups are made of: one event kind and one shared sequence counter to
// break ties, so replacing a closure with a handler never reorders a
// simulation. Scheduling in the past panics.
func (k *Kernel) ScheduleCall(at Time, h EventHandler, token uint64) {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	k.seq++
	k.queue.Push(event{at: at, seq: k.seq, h: h, token: token})
}

// CallAfter registers h.HandleEvent(token) to run d from now. Negative d is
// treated as zero.
func (k *Kernel) CallAfter(d Time, h EventHandler, token uint64) {
	if d < 0 {
		d = 0
	}
	k.ScheduleCall(k.now+d, h, token)
}

// After registers fn to run d from now. Negative d is treated as zero.
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	k.Schedule(k.now+d, fn)
}

// Spawn creates a process that will execute body when Run starts. The name
// appears in deadlock diagnostics.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		k:     k,
		id:    len(k.procs),
		name:  name,
		state: procReady,
	}
	p.resume, p.cancel = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.state = procRunning
		body(p)
		p.state = procDone
		p.finishedAt = k.now
		k.done++
	})
	k.procs = append(k.procs, p)
	// The initial wake-up event starts the process at time zero (or at the
	// current time if spawned mid-run).
	k.ScheduleCall(k.now, p, 0)
	return p
}

// makeReady queues p for dispatch after the current event completes. It
// must only be called from kernel context (inside an event's fire
// function, or from the event loop itself).
func (k *Kernel) makeReady(p *Proc) {
	if p.state == procDone {
		panic(fmt.Sprintf("sim: dispatch of finished process %q", p.name))
	}
	p.state = procReady
	if k.readyHead == len(k.ready) {
		k.ready = k.ready[:0]
		k.readyHead = 0
	}
	k.ready = append(k.ready, p)
}

// step fires pending events until a process becomes ready or the
// simulation is over (queue drained or watchdog tripped). It may run on
// the Run goroutine or inline on a blocking process's coroutine; either
// way exactly one goroutine executes at a time.
func (k *Kernel) step() {
	for k.readyHead == len(k.ready) {
		if k.stop != nil || k.queue.Len() == 0 {
			return
		}
		ev := k.queue.Pop()
		if ev.at < k.now {
			panic("sim: event time went backwards")
		}
		k.now = ev.at
		k.events++
		if k.checkBudgets() {
			return
		}
		ev.h.HandleEvent(ev.token)
	}
}

// takeReady removes and returns the next ready process, or nil.
func (k *Kernel) takeReady() *Proc {
	if k.readyHead == len(k.ready) {
		return nil
	}
	p := k.ready[k.readyHead]
	k.ready[k.readyHead] = nil
	k.readyHead++
	return p
}

// Run drives the simulation until the event queue drains. It returns an
// error if any process is still blocked when no event remains (a deadlock
// in the simulated system), identifying the stuck processes. Abnormal
// terminations — deadlock, budget or watchdog kills — are reported as a
// *RunError carrying a diagnostic snapshot. Run may only be called once
// per kernel.
func (k *Kernel) Run() error { return k.RunContext(nil) }

// RunContext is Run with wall-clock supervision: if ctx expires or is
// canceled, the run is stopped at the next event boundary and the error
// is a *RunError of kind StopDeadline whose cause is the context's error.
// A nil ctx disables the deadline (identical to Run).
func (k *Kernel) RunContext(ctx context.Context) error {
	if k.ran {
		return fmt.Errorf("sim: kernel ran already")
	}
	k.ran = true
	if ctx != nil {
		k.ctx = ctx
		k.ctxDone = ctx.Done()
		if ctx.Err() != nil {
			k.fail(StopDeadline, "wall-clock deadline: "+ctx.Err().Error(), context.Cause(ctx))
		}
	}
	for {
		k.step()
		p := k.takeReady()
		if p == nil {
			break // simulation over
		}
		k.switches++
		p.resume() // direct switch to the process until it blocks or finishes
	}
	k.addTotals()
	if k.stop != nil {
		k.snapshot(k.stop)
		return k.stop
	}
	deadlocked := false
	for _, p := range k.procs {
		if p.state != procDone {
			deadlocked = true
			break
		}
	}
	if deadlocked {
		re := &RunError{Kind: StopDeadlock, At: k.now, Events: k.events,
			SinceProgress: k.events - k.progressAt}
		k.snapshot(re)
		k.err = re
	}
	return k.err
}

// Procs returns the processes spawned on this kernel, in spawn order.
func (k *Kernel) Procs() []*Proc { return k.procs }

// DefaultWorkers is GOMAXPROCS capped at 4: the worker count benchmark
// reports put in their header to describe the machine. Every run is one
// sequential kernel; nothing in the simulator consults it.
func DefaultWorkers() int {
	return max(1, min(runtime.GOMAXPROCS(0), 4))
}

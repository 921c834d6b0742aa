package par

import (
	"fmt"

	"twolayer/internal/sim"
)

// Msg is a delivered message. Data carries the real payload (used for the
// applications' verified computations); Bytes is the simulated wire size
// charged to the interconnect, which may be paper-scale even when Data is
// small.
type Msg struct {
	From  int
	Tag   Tag
	Data  any
	Bytes int64

	// seq is 1 + the message's global send index, stamped only when an
	// op-level recorder (trace.OpSink) is attached so receives can report
	// which message they consumed. Zero — every run without a recorder —
	// means "not recorded".
	seq int64
}

// Tag distinguishes message streams; receives match on it. AnyTag and
// AnySender match everything.
type Tag int

// AnyTag matches any message tag in a receive.
const AnyTag Tag = -1

// AnySender matches any source rank in a receive.
const AnySender = -1

// msgNode is one slot of the mailbox slab: a message envelope linked into
// either the queue (arrival order) or the free list.
type msgNode struct {
	m    Msg
	next int32 // slab index + 1 of the next node; 0 terminates
}

// mailbox is a per-process queue of undelivered messages with selective
// receive: the owning process may block waiting for a (sender, tag) pattern.
//
// The queue is an intrusive singly-linked list threaded through a slab of
// reusable nodes with a free list, rather than a slice. Selective receive
// removes from the middle of the queue, which on a slice costs a copy of
// the tail per receive and on the list is a constant-time unlink; and once
// the slab has grown to the run's peak in-flight depth, deliveries recycle
// free nodes instead of allocating. Arrival order and the scan order of
// take are identical to the slice implementation, so matching semantics are
// preserved bit for bit (the differential test in mailbox_test.go pins
// this). The zero value is an empty, usable mailbox: slab references are
// index+1 so zero means "none".
type mailbox struct {
	nodes      []msgNode
	head, tail int32 // queue ends, arrival order
	free       int32 // free-list head
	queued     int

	// The owner's receive in progress (see request and arm): the pattern,
	// how many matching messages are still to come, and where each one goes.
	cond     sim.Cond
	wantFrom int
	wantTag  Tag
	wantN    int
	sink     func(Msg)
}

// BlockReason renders the receive pattern a blocked owner is waiting for.
// It implements sim.BlockExplainer, so the string is only built if the
// simulation deadlocks — the hot receive path never formats anything.
func (mb *mailbox) BlockReason() string {
	if mb.wantFrom == AnySender {
		return fmt.Sprintf("recv tag %d", mb.wantTag)
	}
	return fmt.Sprintf("recv tag %d from %d", mb.wantTag, mb.wantFrom)
}

// match reports whether m satisfies the (from, tag) pattern.
func match(m *Msg, from int, tag Tag) bool {
	return (from == AnySender || m.From == from) && (tag == AnyTag || m.Tag == tag)
}

// take removes and returns the first queued message matching the pattern,
// scanning in arrival order.
func (mb *mailbox) take(from int, tag Tag) (Msg, bool) {
	prev := int32(0)
	for ref := mb.head; ref != 0; {
		node := &mb.nodes[ref-1]
		if match(&node.m, from, tag) {
			return mb.unlink(prev, ref), true
		}
		prev, ref = ref, node.next
	}
	return Msg{}, false
}

// unlink removes node ref, whose predecessor in the queue is prev (0 for
// the head), frees it and returns its message.
func (mb *mailbox) unlink(prev, ref int32) Msg {
	node := &mb.nodes[ref-1]
	if prev == 0 {
		mb.head = node.next
	} else {
		mb.nodes[prev-1].next = node.next
	}
	if mb.tail == ref {
		mb.tail = prev
	}
	m := node.m
	node.m = Msg{} // release the payload reference for GC
	node.next = mb.free
	mb.free = ref
	mb.queued--
	return m
}

// deliver hands a message to the owner's armed receive if it matches —
// straight into the sink, waking the owner only when the last message it
// asked for is in — and queues it otherwise. Must be called from kernel
// context. In steady state (slab at peak depth) it performs no heap
// allocation.
func (mb *mailbox) deliver(m Msg) {
	if mb.cond.Waiting() && match(&m, mb.wantFrom, mb.wantTag) {
		mb.sink(m)
		if mb.wantN--; mb.wantN == 0 {
			mb.cond.Signal()
		}
		return
	}
	var ref int32
	if mb.free != 0 {
		ref = mb.free
		mb.free = mb.nodes[ref-1].next
	} else {
		mb.nodes = append(mb.nodes, msgNode{})
		ref = int32(len(mb.nodes))
	}
	node := &mb.nodes[ref-1]
	node.m = m
	node.next = 0
	if mb.tail == 0 {
		mb.head = ref
	} else {
		mb.nodes[mb.tail-1].next = ref
	}
	mb.tail = ref
	mb.queued++
}

// request records the owner's next receive — n messages matching (from,
// tag), each to be passed to sink — without acting on it; arm does that.
// sink runs wherever a message turns up — on the owner's stack for queued
// ones, in kernel context for later ones — and so may only touch the
// owner's own state.
func (mb *mailbox) request(from int, tag Tag, n int, sink func(Msg)) {
	mb.wantFrom, mb.wantTag, mb.wantN, mb.sink = from, tag, n, sink
}

// arm starts the requested receive: queued matches go to the sink at once,
// in arrival order, and arm reports whether they were enough. If not, the
// owner must wait on cond; deliver feeds the sink the rest as they arrive
// and signals on the one that completes the batch, so n messages cost the
// owner one wake-up.
//
// The queue is walked once: each match is unlinked and handed over where it
// stands, so n queued matches cost one pass, not n scans from the head.
func (mb *mailbox) arm() bool {
	prev := int32(0)
	for ref := mb.head; ref != 0 && mb.wantN > 0; {
		next := mb.nodes[ref-1].next
		if match(&mb.nodes[ref-1].m, mb.wantFrom, mb.wantTag) {
			mb.wantN--
			mb.sink(mb.unlink(prev, ref))
		} else {
			prev = ref
		}
		ref = next
	}
	return mb.wantN == 0
}

// pending reports how many undelivered messages are queued.
func (mb *mailbox) pending() int { return mb.queued }

package par

import (
	"math/rand"
	"testing"
)

// refMailbox is the original slice-based queue: the reference the slab
// implementation must match operation for operation.
type refMailbox struct {
	queue []Msg
}

func (mb *refMailbox) deliver(m Msg) { mb.queue = append(mb.queue, m) }

func (mb *refMailbox) take(from int, tag Tag) (Msg, bool) {
	for i := range mb.queue {
		if match(&mb.queue[i], from, tag) {
			m := mb.queue[i]
			mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
			return m, true
		}
	}
	return Msg{}, false
}

// TestMailboxMatchesSliceReference drives the slab mailbox and the slice
// reference with identical random operation sequences: every take must
// return the same message (or the same miss), and the pending counts must
// track. This pins FIFO order and selective-receive semantics bit for bit.
func TestMailboxMatchesSliceReference(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		var mb mailbox
		var ref refMailbox
		for op := 0; op < 20000; op++ {
			if r.Intn(2) == 0 {
				m := Msg{
					From:  r.Intn(6),
					Tag:   Tag(r.Intn(4)),
					Data:  op,
					Bytes: int64(op),
				}
				mb.deliver(m)
				ref.deliver(m)
			} else {
				from := r.Intn(7) - 1 // includes AnySender
				tag := Tag(r.Intn(5) - 1)
				gm, gok := mb.take(from, tag)
				wm, wok := ref.take(from, tag)
				if gok != wok || gm != wm {
					t.Fatalf("seed %d op %d: take(%d,%d) = %v,%v; reference %v,%v",
						seed, op, from, tag, gm, gok, wm, wok)
				}
			}
			if mb.pending() != len(ref.queue) {
				t.Fatalf("seed %d op %d: pending %d, reference %d", seed, op, mb.pending(), len(ref.queue))
			}
		}
		// Drain both completely; arrival order must match exactly.
		for {
			gm, gok := mb.take(AnySender, AnyTag)
			wm, wok := ref.take(AnySender, AnyTag)
			if gok != wok || gm != wm {
				t.Fatalf("seed %d drain: %v,%v vs reference %v,%v", seed, gm, gok, wm, wok)
			}
			if !gok {
				break
			}
		}
	}
}

// TestMailboxSlabReuse checks that a drained mailbox recycles its slab
// instead of growing: peak slab size equals peak queue depth.
func TestMailboxSlabReuse(t *testing.T) {
	var mb mailbox
	for round := 0; round < 100; round++ {
		for i := 0; i < 8; i++ {
			mb.deliver(Msg{From: i, Tag: 1})
		}
		for i := 0; i < 8; i++ {
			if _, ok := mb.take(AnySender, AnyTag); !ok {
				t.Fatal("take miss on non-empty mailbox")
			}
		}
	}
	if len(mb.nodes) != 8 {
		t.Errorf("slab grew to %d nodes; want peak depth 8", len(mb.nodes))
	}
}

// armByTake is arm as n successive takes, each scanning from the head: the
// loop the one-pass arm replaced, kept as its reference.
func armByTake(mb *mailbox) bool {
	for ; mb.wantN > 0; mb.wantN-- {
		m, ok := mb.take(mb.wantFrom, mb.wantTag)
		if !ok {
			return false
		}
		mb.sink(m)
	}
	return true
}

// TestMailboxArmMatchesTakeLoop: arming a receive hands the sink the same
// messages in the same order, leaves the same messages queued in the same
// order and reports the same completion as n successive takes.
func TestMailboxArmMatchesTakeLoop(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var got, want mailbox
		var gotSunk, wantSunk []Msg
		for op := 0; op < 5000; op++ {
			if r.Intn(3) > 0 {
				m := Msg{From: r.Intn(6), Tag: Tag(r.Intn(4)), Data: op, Bytes: int64(op)}
				got.deliver(m)
				want.deliver(m)
				continue
			}
			from, tag, n := r.Intn(7)-1, Tag(r.Intn(5)-1), 1+r.Intn(6)
			got.request(from, tag, n, func(m Msg) { gotSunk = append(gotSunk, m) })
			want.request(from, tag, n, func(m Msg) { wantSunk = append(wantSunk, m) })
			gok, wok := got.arm(), armByTake(&want)
			if gok != wok || got.wantN != want.wantN {
				t.Fatalf("seed %d op %d: arm = %v with %d to come, take loop = %v with %d", seed, op, gok, got.wantN, wok, want.wantN)
			}
			if len(gotSunk) != len(wantSunk) {
				t.Fatalf("seed %d op %d: sink got %d messages, take loop %d", seed, op, len(gotSunk), len(wantSunk))
			}
			for i := range gotSunk {
				if gotSunk[i] != wantSunk[i] {
					t.Fatalf("seed %d op %d: sink got %v, take loop %v", seed, op, gotSunk[i], wantSunk[i])
				}
			}
			gotSunk, wantSunk = gotSunk[:0], wantSunk[:0]
			if got.pending() != want.pending() {
				t.Fatalf("seed %d op %d: %d queued, take loop %d", seed, op, got.pending(), want.pending())
			}
			// Nobody waits on the mailboxes, so the request is dropped.
			got.sink, want.sink = nil, nil
		}
		for {
			gm, gok := got.take(AnySender, AnyTag)
			wm, wok := want.take(AnySender, AnyTag)
			if gok != wok || gm != wm {
				t.Fatalf("seed %d drain: %v,%v vs take loop %v,%v", seed, gm, gok, wm, wok)
			}
			if !gok {
				break
			}
		}
	}
}

// Package trace collects and analyzes communication and computation events
// from a simulated run. The paper closes by arguing that "more effort is
// needed to assist programmers in identifying performance problems, to
// help them better to understand the characteristics of interconnect and
// program" — this package is that tooling for the simulated testbed: it
// turns a run into a communication matrix, per-processor utilization
// profile, wide-area traffic timeline, busiest pairs and transit statistics.
package trace

import "twolayer/internal/sim"

// MsgKind labels a message's role: an application payload, a
// reliable-transport retransmission of one, or a transport acknowledgement.
// It mirrors network.MsgClass without importing it (trace sits below the
// runtime layers that produce events).
type MsgKind uint8

const (
	// KindData is a first transmission of an application payload.
	KindData MsgKind = iota
	// KindRetrans is a reliable-transport retransmission.
	KindRetrans
	// KindAck is a reliable-transport acknowledgement.
	KindAck
)

// Message is one recorded message.
type Message struct {
	Src, Dst  int
	Bytes     int64
	Sent      sim.Time
	Delivered sim.Time
	WAN       bool
	// Kind separates payloads from transport retransmissions and acks so
	// aggregate views can count logical traffic exactly once.
	Kind MsgKind
	// Dup marks the injected second copy of a duplicated message.
	Dup bool
	// Dropped marks a message lost to fault injection (never delivered;
	// Delivered holds the loss time).
	Dropped bool
}

// TransportStats counts reliable-transport protocol activity during a run
// (see package par); all counters are zero on runs without fault injection.
type TransportStats struct {
	// Timeouts is the number of retransmission-timer expiries.
	Timeouts int64 `json:"timeouts"`
	// Retransmits is the number of frames resent (go-back-N resends every
	// unacked frame per timeout, so this is >= Timeouts when loss occurs).
	Retransmits int64 `json:"retransmits"`
	// Acks is the number of acknowledgement messages sent.
	Acks int64 `json:"acks"`
	// Duplicates is the number of frames the receiver discarded as already
	// delivered (injected duplicates and spurious retransmissions).
	Duplicates int64 `json:"duplicates"`
	// OutOfOrder is the number of frames the receiver discarded for
	// arriving ahead of a gap (go-back-N accepts only in-order frames).
	OutOfOrder int64 `json:"out_of_order"`
}

// Span is one recorded computation interval on a rank.
type Span struct {
	Rank       int
	Start, End sim.Time
}

// Sink receives the event stream of a run. Stream is the package's sink: it
// folds every event into constant-memory aggregates as it arrives. Tools
// that need the raw events implement the three methods themselves; the
// runtime records through this interface and nothing else.
type Sink interface {
	// RecordMessage is called once per observed message (delivered or,
	// under fault injection, dropped), in delivery order.
	RecordMessage(m Message)
	// RecordSpan is called once per computation interval, in start order
	// per rank.
	RecordSpan(s Span)
	// RecordTransport is called at most once, after the run, with the
	// reliable-transport counters.
	RecordTransport(ts TransportStats)
}

// Summary aggregates the trace. Message/byte counts cover delivered wire
// traffic of every kind (payloads, retransmissions, acks); Dropped counts
// messages lost to fault injection, which contribute to no other statistic.
type Summary struct {
	Messages       int
	WANMessages    int
	Dropped        int
	Bytes          int64
	WANBytes       int64
	MeanTransit    sim.Time
	MeanWANTransit sim.Time
	MaxTransit     sim.Time
}

// Package faults is a deterministic fault-injection plane for the simulated
// wide-area interconnect. The paper assumes perfectly reliable links while
// noting (Section 1) that real wide-area links fluctuate; package regime's
// vary clause models speed fluctuation, and this package models
// the other half of an unreliable WAN: message loss, duplication, reordering
// and transient link outages.
//
// Every injected fault is a pure function of (Seed, src cluster, dst
// cluster, per-link message index) — no wall clock, no global RNG, no
// state mutated across decisions except the outage phase, which itself is
// derived from the seed. Two runs with equal seeds therefore inject
// bit-identical fault sequences, so a chaos experiment is as reproducible
// as a clean one. The zero Params value injects nothing and costs nothing.
//
// Only the wide-area links suffer faults: the intra-cluster Myrinet-class
// network is reliable in the paper's testbed and stays reliable here. The
// reliable-transport layer in package par (go-back-N with acks and
// retransmission timers) is what lets applications complete correctly when
// a Plan is active.
package faults

import (
	"fmt"
	"math"

	"twolayer/internal/sim"
)

// Params configures the injected faults. The zero value disables injection.
type Params struct {
	// DropRate is the probability in [0,1] that a wide-area message is lost
	// in flight (after occupying the link — congestion loss at the far
	// gateway). Rate 1 models a totally hostile WAN: every wide-area message
	// is lost, so no run can complete and only the supervision layer
	// (retry caps, budgets, deadlines) terminates it.
	DropRate float64
	// DupRate is the probability in [0,1] that a wide-area message is
	// delivered twice (a retransmission artifact of the underlying path).
	DupRate float64
	// ReorderJitter is the maximum extra delivery delay added per wide-area
	// message, drawn uniformly from [0, ReorderJitter]. Distinct delays on
	// messages sharing a link reorder them in flight.
	ReorderJitter sim.Time
	// OutagePeriod and OutageDuration model transient link failures: each
	// directed wide-area link is down for OutageDuration out of every
	// OutagePeriod, with a per-link phase derived from the seed so outages
	// are not fleet-synchronized. Messages attempting the link during an
	// outage are dropped without occupying it. OutageDuration zero disables
	// outages. The duration must be strictly shorter than the period: a
	// link that is never up is not an outage schedule, it is a dead WAN —
	// model that as DropRate: 1 instead.
	OutagePeriod   sim.Time
	OutageDuration sim.Time
	// Seed drives every fault stream. Runs with equal seeds inject
	// identical faults.
	Seed int64
}

// Enabled reports whether the parameters inject any fault at all.
func (p Params) Enabled() bool {
	return p.DropRate > 0 || p.DupRate > 0 || p.ReorderJitter > 0 ||
		(p.OutageDuration > 0 && p.OutagePeriod > 0)
}

// Validate checks the parameters, rejecting rates outside [0,1] (NaN
// included — every comparison against a NaN rate is false, so without the
// explicit check it would sail through range validation and then poison
// every per-message threshold comparison into "never fire"), negative
// durations and seeds, and outage durations that exceed their period (a
// link that is never up cannot carry acks, so every run would fail its
// retry cap; an always-dead WAN is DropRate 1, not an outage schedule).
func (p Params) Validate() error {
	switch {
	case math.IsNaN(p.DropRate) || p.DropRate < 0 || p.DropRate > 1:
		return fmt.Errorf("faults: DropRate %v outside [0,1]", p.DropRate)
	case math.IsNaN(p.DupRate) || p.DupRate < 0 || p.DupRate > 1:
		return fmt.Errorf("faults: DupRate %v outside [0,1]", p.DupRate)
	case p.ReorderJitter < 0:
		return fmt.Errorf("faults: negative ReorderJitter %v", p.ReorderJitter)
	case p.OutagePeriod < 0:
		return fmt.Errorf("faults: negative OutagePeriod %v", p.OutagePeriod)
	case p.OutageDuration < 0:
		return fmt.Errorf("faults: negative OutageDuration %v", p.OutageDuration)
	case p.OutageDuration > 0 && p.OutagePeriod == 0:
		return fmt.Errorf("faults: OutageDuration %v without an OutagePeriod", p.OutageDuration)
	case p.OutageDuration >= p.OutagePeriod && p.OutageDuration > 0:
		return fmt.Errorf("faults: OutageDuration %v must be shorter than OutagePeriod %v",
			p.OutageDuration, p.OutagePeriod)
	case p.Seed < 0:
		return fmt.Errorf("faults: negative seed %d", p.Seed)
	}
	return nil
}

// Decision is the fate of one wide-area message.
type Decision struct {
	// Drop: the message never arrives. Outage distinguishes an outage drop
	// (link down, message not charged to the link) from an in-flight loss
	// (message charged, then lost).
	Drop   bool
	Outage bool
	// Duplicate: a second copy is delivered, occupying the link again.
	Duplicate bool
	// ExtraDelay is reordering jitter added to the delivery latency of the
	// primary copy; DupExtraDelay to the duplicate's.
	ExtraDelay    sim.Time
	DupExtraDelay sim.Time
}

// Plan is a compiled fault plan for one simulation. It is stateless and
// safe for concurrent use across simulations (each simulation keeps its own
// per-link message counters).
type Plan struct {
	p Params
}

// NewPlan compiles the parameters into a plan. It panics on invalid
// parameters; call Validate first when the values come from user input.
func NewPlan(p Params) *Plan {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Plan{p: p}
}

// Params returns the plan's configuration.
func (pl *Plan) Params() Params { return pl.p }

// Stream salts keep the per-purpose fault streams independent: a message's
// drop verdict says nothing about its jitter.
const (
	saltDrop = iota + 1
	saltDup
	saltJitter
	saltDupJitter
	saltPhase
)

// mix64 is the splitmix64 finalizer: a cheap, high-quality avalanche of a
// 64-bit state into a 64-bit hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash folds the fault identity (seed, link, message index, stream salt)
// into a uniform 64-bit value by chaining the splitmix64 finalizer.
func (pl *Plan) hash(src, dst int, idx int64, salt uint64) uint64 {
	h := mix64(uint64(pl.p.Seed) ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(uint32(src))<<32 ^ uint64(uint32(dst)))
	h = mix64(h ^ uint64(idx))
	return mix64(h ^ salt)
}

// unit maps a fault identity to a uniform float64 in [0,1).
func (pl *Plan) unit(src, dst int, idx int64, salt uint64) float64 {
	return float64(pl.hash(src, dst, idx, salt)>>11) / float64(1<<53)
}

// LinkDown reports whether the directed wide-area link src->dst is in an
// outage window at virtual time now. Each link's outage schedule is a fixed
// square wave with a seed-derived phase.
func (pl *Plan) LinkDown(src, dst int, now sim.Time) bool {
	if pl.p.OutageDuration <= 0 || pl.p.OutagePeriod <= 0 || now < 0 {
		return false
	}
	period := int64(pl.p.OutagePeriod)
	phase := int64(pl.hash(src, dst, 0, saltPhase) % uint64(period))
	return (int64(now)+phase)%period < int64(pl.p.OutageDuration)
}

// Decide returns the fate of the idx-th message offered to the directed
// wide-area link src->dst at virtual time now. idx must be a per-link
// counter maintained by the caller; the decision is a pure function of
// (seed, src, dst, idx) plus the outage schedule's view of now.
func (pl *Plan) Decide(src, dst int, idx int64, now sim.Time) Decision {
	var d Decision
	if pl.LinkDown(src, dst, now) {
		d.Drop, d.Outage = true, true
		return d
	}
	if pl.p.DropRate > 0 && pl.unit(src, dst, idx, saltDrop) < pl.p.DropRate {
		d.Drop = true
		return d
	}
	if pl.p.DupRate > 0 && pl.unit(src, dst, idx, saltDup) < pl.p.DupRate {
		d.Duplicate = true
	}
	if j := pl.p.ReorderJitter; j > 0 {
		d.ExtraDelay = sim.Time(pl.unit(src, dst, idx, saltJitter) * float64(j+1))
		if d.Duplicate {
			d.DupExtraDelay = sim.Time(pl.unit(src, dst, idx, saltDupJitter) * float64(j+1))
		}
	}
	return d
}

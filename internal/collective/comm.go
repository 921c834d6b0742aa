// Package collective implements the fourteen MPI-1 collective communication
// operations in two ways: a flat, topology-unaware style (the MPICH
// algorithms of the paper's era) and a hierarchical, wide-area-optimal
// style modelled on MagPIe (Section 6 of the paper; Kielmann et al.,
// PPoPP'99).
//
// The MagPIe property is that every data item crosses each slow wide-area
// link at most once, and every collective operation completes in a small
// constant number of wide-area latencies. The flat algorithms, in
// contrast, let their trees straddle cluster boundaries, so the same data
// crosses the slow links many times — up to 10x slower on the paper's
// 10 ms / 1 MByte/s configuration.
package collective

import (
	"fmt"

	"twolayer/internal/par"
	"twolayer/internal/sim"
)

// Style selects the algorithm family of a Comm.
type Style int

const (
	// Flat is the topology-unaware MPICH-like family.
	Flat Style = iota
	// Hierarchical is the two-level, cluster-aware MagPIe-like family.
	Hierarchical
)

// String returns "flat" or "hierarchical".
func (s Style) String() string {
	if s == Flat {
		return "flat"
	}
	return "hierarchical"
}

// elemBytes is the simulated wire size of one vector element.
const elemBytes = 8

// headerBytes is the per-message protocol header charged on the wire.
const headerBytes = 16

// Comm provides collective operations over all ranks of an SPMD program.
// Like an MPI communicator, every rank must construct its own Comm with the
// same style and then invoke the same sequence of collective calls.
type Comm struct {
	e     *par.Env
	style Style
	seq   int // per-rank operation counter; must stay aligned across ranks

	// Adaptive switching (NewAdaptive): every `every` collective calls the
	// communicator measures the wide-area/local round-trip ratio and
	// switches family when it crosses the hysteresis thresholds. probing
	// guards against the probe's own collective call re-entering the probe.
	adaptive   bool
	every      int
	untilProbe int
	probing    bool
}

// New returns a communicator for e using the given algorithm family.
func New(e *par.Env, style Style) *Comm {
	return &Comm{e: e, style: style}
}

// NewAdaptive returns a communicator that starts in the given family and
// re-measures the network every `every` collective operations (default 16
// when every < 1), switching family when the measured wide-area/local gap
// crosses a threshold: a flat tree is fine while the wide-area links are
// only a few local round trips away, and MagPIe-style hierarchy wins once
// they are an order of magnitude slower (the paper's central observation,
// applied at runtime). Every rank must construct its communicator with the
// same arguments and issue the same call sequence — the same contract as
// New — which is what keeps the probe schedule, and therefore the style
// switches, globally agreed without any extra synchronization.
func NewAdaptive(e *par.Env, start Style, every int) *Comm {
	if every < 1 {
		every = 16
	}
	// The first probe waits a full interval: a run short enough to finish
	// inside it (or one whose regime never bites) pays no probing overhead
	// at all, so an adaptive communicator on a calm network costs nothing.
	return &Comm{e: e, style: start, adaptive: true, every: every, untilProbe: every}
}

// Env returns the underlying environment.
func (c *Comm) Env() *par.Env { return c.e }

// Style returns the communicator's algorithm family.
func (c *Comm) Style() Style { return c.style }

// nextTag starts a new collective operation and returns its base tag.
// Collective tags are negative odd numbers at or below -3001, a range
// disjoint from application tags (non-negative), RPC reply tags (negative
// even) and the runtime barrier tags (-1001/-1003). Each operation gets a
// block of tag slots so its phases cannot cross-talk with the next call.
func (c *Comm) nextTag() par.Tag {
	t := par.Tag(-(3001 + c.seq*tagStride))
	c.seq++
	if c.adaptive && !c.probing {
		if c.untilProbe == 0 {
			// Probe inside the tag allocation of a regular collective call:
			// every rank allocates tags in the same order (the communicator
			// contract), so every rank enters the probe at the same call
			// index with the same probe tags. The guard keeps the probe's
			// own collective traffic from re-triggering it.
			c.probing = true
			c.adapt()
			c.probing = false
			c.untilProbe = c.every
		}
		c.untilProbe--
	}
	return t
}

// Hysteresis thresholds on the measured wide-area/local round-trip ratio:
// switch to the hierarchical family above adaptUpRatio, back to flat below
// adaptDownRatio, keep the current family in between. The dead band stops
// a ratio hovering near one threshold from flapping the style every probe.
const (
	adaptUpRatio   = 12.0
	adaptDownRatio = 8.0
)

// adapt measures the current network gap and agrees a (possibly new)
// algorithm family across all ranks. Rank roles are derived from the
// topology alone, so every rank executes a matching communication script:
// the root times one wide-area and one local round trip, and the verdict
// travels to everyone in the decision broadcast. Under a whole-cluster
// outage the probe's wide-area leg is repaired by the reliable transport
// after the rejoin; the inflated measurement then reads as a (correctly)
// enormous gap.
func (c *Comm) adapt() {
	e := c.e
	if e.Clusters() < 2 {
		return
	}
	local := e.Topology().RanksIn(0)
	if len(local) < 2 {
		return // no local pair to measure the fast network with
	}
	probe := c.nextTag()
	decide := c.nextTag()
	root := e.Coordinator(0)
	wanPeer := e.Coordinator(1)
	lanPeer := local[1]
	style := c.style
	switch e.Rank() {
	case root:
		t0 := e.Now()
		e.Send(wanPeer, phase(probe, 0), nil, headerBytes)
		e.RecvFrom(wanPeer, phase(probe, 1))
		wan := e.Now() - t0
		t1 := e.Now()
		e.Send(lanPeer, phase(probe, 2), nil, headerBytes)
		e.RecvFrom(lanPeer, phase(probe, 3))
		lan := e.Now() - t1
		if lan > 0 {
			switch ratio := float64(wan) / float64(lan); {
			case ratio >= adaptUpRatio:
				style = Hierarchical
			case ratio <= adaptDownRatio:
				style = Flat
			}
		}
	case wanPeer:
		e.RecvFrom(root, phase(probe, 0))
		e.Send(root, phase(probe, 1), nil, headerBytes)
	case lanPeer:
		e.RecvFrom(root, phase(probe, 2))
		e.Send(root, phase(probe, 3), nil, headerBytes)
	}
	out := c.flatBcast(decide, root, []float64{float64(style)})
	c.style = Style(int(out[0]))
}

// tagStride is the number of tag slots reserved per collective call (even,
// to preserve oddness of derived tags).
const tagStride = 8

// phase derives the tag for phase i (0..3) of an operation.
func phase(base par.Tag, i int) par.Tag { return base - par.Tag(2*i) }

// vecBytes is the wire size of a vector message.
func vecBytes(n int) int64 { return headerBytes + int64(n)*elemBytes }

// combineCostPerElem is the virtual compute time charged per vector element
// when a reduction operator is applied.
const combineCostPerElem = 10 * sim.Nanosecond

// checkUniform verifies that all segments have equal length, the contract
// of the non-"v" operations.
func checkUniform(segs [][]float64, what string) {
	for i := 1; i < len(segs); i++ {
		if len(segs[i]) != len(segs[0]) {
			panic(fmt.Sprintf("collective: %s requires equal segment sizes (use the v-variant); got %d and %d",
				what, len(segs[0]), len(segs[i])))
		}
	}
}

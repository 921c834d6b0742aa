// Package network models the two-layer interconnect of the paper's testbed:
// Myrinet-class links inside each cluster and configurable ATM-class
// wide-area links between clusters, connected through per-cluster gateways.
//
// The model charges three kinds of cost to a message:
//
//   - per-message software overhead on the sending host (the Panda/FM layer),
//   - serialization on shared resources: the sender's NIC for the fast
//     network, and the dedicated cluster-pair wide-area link for slow
//     traffic (store-and-forward through the gateway),
//   - wire latency per hop.
//
// The wide-area links are the paper's experimental knob: latency 0.4-300 ms
// one way, bandwidth 6.3-0.03 MByte/s. Every link keeps traffic statistics
// so the harness can regenerate Figure 1 and Figure 4.
package network

import (
	"fmt"

	"twolayer/internal/faults"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/wantopo"
)

// Params are the tunable speeds of the interconnect. The defaults mirror
// the paper's testbed numbers.
type Params struct {
	// IntraLatency is the one-way application-level latency of the fast
	// (Myrinet) network. The paper reports 20 us.
	IntraLatency sim.Time
	// IntraBandwidth is the application-level bandwidth of the fast network
	// in bytes/second. The paper reports 50 MByte/s.
	IntraBandwidth float64
	// WANLatency is the one-way latency of a wide-area link. Swept over
	// 0.5-300 ms in the paper's experiments.
	WANLatency sim.Time
	// WANBandwidth is the bandwidth of each wide-area link in bytes/second.
	// Swept over 0.03-6.3 MByte/s.
	WANBandwidth float64
	// SendOverhead is per-message software overhead charged on the sender
	// before the message enters the NIC.
	SendOverhead sim.Time
	// RecvOverhead is per-message software overhead charged before delivery.
	RecvOverhead sim.Time
	// WANPerMessage is extra per-message overhead on the gateway/TCP path
	// (protocol stack traversal); charged once per wide-area message.
	WANPerMessage sim.Time
	// WANMessageRTTFactor adds a TCP-like surcharge per wide-area message
	// proportional to the link round-trip time (ack-clocked protocols pay
	// latency per message). Zero, the default, models the clean link the
	// delay loops emulate; ~0.5-1.0 approximates the paper-era TCP stacks.
	WANMessageRTTFactor float64
}

// Testbed speed constants from Section 3.2 and 4 of the paper.
const (
	MyrinetLatency    = 20 * sim.Microsecond
	MyrinetBandwidth  = 50e6 // bytes/s
	DefaultATMLatency = 500 * sim.Microsecond
	DefaultATMBW      = 6.0e6
)

// DefaultParams returns the paper's base configuration: Myrinet inside
// clusters, 6 MByte/s / 0.5 ms ATM between clusters.
func DefaultParams() Params {
	return Params{
		IntraLatency:   MyrinetLatency,
		IntraBandwidth: MyrinetBandwidth,
		WANLatency:     DefaultATMLatency,
		WANBandwidth:   DefaultATMBW,
		SendOverhead:   5 * sim.Microsecond,
		RecvOverhead:   5 * sim.Microsecond,
		WANPerMessage:  60 * sim.Microsecond,
	}
}

// WithWAN returns a copy of p with the wide-area knobs replaced; bandwidth
// in bytes/second.
func (p Params) WithWAN(latency sim.Time, bandwidth float64) Params {
	p.WANLatency = latency
	p.WANBandwidth = bandwidth
	return p
}

// Gap returns the NUMA gap of the configuration: the ratio between slow and
// fast link speed, for latency and bandwidth respectively.
func (p Params) Gap() (latencyGap, bandwidthGap float64) {
	latencyGap = float64(p.WANLatency) / float64(p.IntraLatency)
	bandwidthGap = p.IntraBandwidth / p.WANBandwidth
	return
}

// link is a serializing resource: transmissions queue FIFO and each
// occupies the link for size/bandwidth.
type link struct {
	freeAt sim.Time
	stats  LinkStats
}

// reserve books size bytes onto the link starting no earlier than ready,
// returning the time the last byte leaves the link.
func (l *link) reserve(ready sim.Time, size int64, bandwidth float64) sim.Time {
	return l.reserveWith(ready, size, bandwidth, 0)
}

// reserveWith additionally occupies the link for extra per-message time —
// the model of ack-clocked protocols that hold the pipe beyond the pure
// transmission (TCP slow start, per-message handshakes).
func (l *link) reserveWith(ready sim.Time, size int64, bandwidth float64, extra sim.Time) sim.Time {
	start := ready
	if l.freeAt > start {
		start = l.freeAt
	}
	end := start + sim.TransmissionTime(size, bandwidth) + extra
	l.freeAt = end
	l.stats.Messages++
	l.stats.Bytes += size
	l.stats.BusyTime += end - start
	return end
}

// LinkStats is the traffic recorded on one link.
type LinkStats struct {
	Messages int64
	Bytes    int64
	BusyTime sim.Time
}

// Network routes messages over a topology with the given parameters.
// It must be used only from within a single simulation kernel.
type Network struct {
	k      *sim.Kernel
	topo   *topology.Topology
	params Params

	nics     []link // per-rank outgoing fast-network interface
	gateways []link // per-cluster gateway fast-network interface (incoming WAN traffic redistribution)

	// wg is the wide-area graph (wantopo.Clique by default) and wanRows its
	// per-link mutable state: wanRows[v][i] is the link of edge RowStart(v)+i.
	// Rows materialize on first booking, so a run allocates links only for
	// the nodes that send or forward wide-area traffic.
	wg      *wantopo.WAN
	wanRows [][]link

	intra IntraStats

	// observer, when set, sees every delivered or dropped message (see
	// SetObserver).
	observer func(MessageEvent)

	// Fault injection (see SetFaults); nil when the WAN is reliable.
	faults     *faults.Plan
	faultIdx   []int64 // per directed wide-area link message counter
	faultStats FaultStats

	// Dynamic regime (see SetRegime); nil when conditions are stationary.
	regime *regime.Plan
}

// MsgClass labels a message's role for observers and fault accounting: an
// application payload, a transport-level retransmission of one, or a
// transport acknowledgement. The network treats all classes identically on
// the wire; the distinction exists so traces can count logical traffic
// exactly once.
type MsgClass uint8

const (
	// ClassData is a first transmission of an application payload.
	ClassData MsgClass = iota
	// ClassRetrans is a reliable-transport retransmission.
	ClassRetrans
	// ClassAck is a reliable-transport acknowledgement.
	ClassAck
)

// String names the class for trace exports.
func (c MsgClass) String() string {
	switch c {
	case ClassRetrans:
		return "retrans"
	case ClassAck:
		return "ack"
	default:
		return "data"
	}
}

// MessageEvent is reported to the observer installed with SetObserver for
// every delivered — or, with fault injection, dropped — message: the raw
// material of the trace subsystem.
type MessageEvent struct {
	Src, Dst  int
	Bytes     int64
	Sent      sim.Time
	Delivered sim.Time
	WAN       bool
	// Class labels payloads vs. transport-level retransmissions and acks.
	Class MsgClass
	// Duplicate marks the injected second copy of a duplicated message.
	Duplicate bool
	// Dropped marks a message lost to fault injection; Delivered then holds
	// the time the loss occurred and no delivery callback ever fires.
	Dropped bool
}

// FaultStats counts injected faults on the wide-area links.
type FaultStats struct {
	// Dropped messages were lost in flight (after occupying the link).
	Dropped int64
	// OutageDropped messages hit a link outage (never occupied the link).
	OutageDropped int64
	// Duplicated messages were delivered twice.
	Duplicated int64
}

// SetObserver installs a callback invoked at every message delivery. Passing
// nil disables observation.
func (n *Network) SetObserver(fn func(MessageEvent)) { n.observer = fn }

// IntraStats aggregates fast-network traffic (for Table 1's total traffic
// column).
type IntraStats struct {
	Messages int64
	Bytes    int64
}

// New creates a network for the given topology and parameters on kernel k,
// with the paper's fully connected wide-area graph.
func New(k *sim.Kernel, topo *topology.Topology, params Params) *Network {
	return NewWithWAN(k, topo, params, nil)
}

// NewWithWAN creates a network whose wide-area layer is the given graph; nil
// means the default clique. Cross-cluster messages follow the graph's
// precomputed routes, booking every hop's link FIFO store-and-forward. The
// graph's cluster count must match the topology's.
func NewWithWAN(k *sim.Kernel, topo *topology.Topology, params Params, w *wantopo.WAN) *Network {
	c := topo.Clusters()
	if w == nil {
		w = wantopo.Clique(c)
	}
	if w.Clusters() != c {
		panic(fmt.Sprintf("network: wide-area graph %q built for %d clusters, topology has %d",
			w.Spec(), w.Clusters(), c))
	}
	return &Network{
		k:        k,
		topo:     topo,
		params:   params,
		nics:     make([]link, topo.Procs()),
		gateways: make([]link, c),
		wg:       w,
		wanRows:  make([][]link, w.Nodes()),
	}
}

// WAN returns the wide-area graph the network routes over.
func (n *Network) WAN() *wantopo.WAN { return n.wg }

// Topology returns the network's topology.
func (n *Network) Topology() *topology.Topology { return n.topo }

// Params returns the configured speeds.
func (n *Network) Params() Params { return n.params }

// SendHandle models the transfer of size simulated bytes from rank src to
// rank dst. At the arrival time the network calls h.HandleEvent(token) in
// kernel context; the handler is typically a long-lived runtime object
// holding a pool of message envelopes indexed by token, which keeps the send
// path free of heap allocations. It must be called from kernel or process
// context within the simulation. The class does not change the wire model;
// it flows to observers (so traces can separate payloads from
// retransmissions and acks) and is how the reliable transport in package par
// labels its protocol traffic.
//
// SendHandle returns how many times h.HandleEvent(token) will fire: 1
// normally, 0 when fault injection or churn drops the message, and 2 when
// fault injection duplicates it (both copies carry the same token).
func (n *Network) SendHandle(src, dst int, size int64, class MsgClass, h sim.EventHandler, token uint64) int {
	if size < 0 {
		panic(fmt.Sprintf("network: negative message size %d", size))
	}
	now := n.k.Now()
	ready := now + n.params.SendOverhead

	if src == dst {
		// Loopback: software overhead only, no NIC transit.
		deliverAt := ready + n.params.RecvOverhead
		n.k.ScheduleCall(deliverAt, h, token)
		if n.observer != nil {
			n.observer(MessageEvent{Src: src, Dst: dst, Bytes: size, Sent: now, Delivered: deliverAt, Class: class})
		}
		return 1
	}

	// First leg: the sender's fast-network interface serializes the message.
	nicDone := n.nics[src].reserve(ready, size, n.params.IntraBandwidth)
	localArrive := nicDone + n.params.IntraLatency
	n.intra.Messages++
	n.intra.Bytes += size

	if n.topo.SameCluster(src, dst) {
		deliverAt := localArrive + n.params.RecvOverhead
		n.k.ScheduleCall(deliverAt, h, token)
		if n.observer != nil {
			n.observer(MessageEvent{Src: src, Dst: dst, Bytes: size, Sent: now, Delivered: deliverAt, Class: class})
		}
		return 1
	}

	sc, dc := n.topo.ClusterOf(src), n.topo.ClusterOf(dst)

	// Cluster churn: traffic to or from a churned-out cluster vanishes at
	// the source gateway without ever occupying a wide-area link, like a
	// link outage. The decision is a pure function of (plan, clusters,
	// virtual time).
	if n.regime != nil && (n.regime.ClusterDown(sc, localArrive) || n.regime.ClusterDown(dc, localArrive)) {
		n.faultStats.OutageDropped++
		if n.observer != nil {
			n.observer(MessageEvent{Src: src, Dst: dst, Bytes: size, Sent: now,
				Delivered: localArrive, WAN: true, Class: class, Dropped: true})
		}
		return 0
	}

	// Fault injection happens where the paper's real system would lose
	// traffic: at the gateway onto the wide-area link. The intra-cluster
	// leg above is always reliable.
	if n.faults != nil {
		li := sc*n.topo.Clusters() + dc
		idx := n.faultIdx[li]
		n.faultIdx[li]++
		d := n.faults.Decide(sc, dc, idx, localArrive)
		if d.Drop {
			if d.Outage {
				// Link down: the message vanishes at the gateway without
				// occupying the link.
				n.faultStats.OutageDropped++
			} else {
				// In-flight loss: the frame occupies the first wide-area hop,
				// then is lost before the next gateway.
				n.faultStats.Dropped++
				n.wanFirstHop(sc, dc, localArrive, size)
			}
			if n.observer != nil {
				n.observer(MessageEvent{Src: src, Dst: dst, Bytes: size, Sent: now,
					Delivered: localArrive, WAN: true, Class: class, Dropped: true})
			}
			return 0
		}
		n.wanDeliver(src, dst, sc, dc, now, localArrive, size, d.ExtraDelay, class, false, h, token)
		if d.Duplicate {
			n.faultStats.Duplicated++
			n.wanDeliver(src, dst, sc, dc, now, localArrive, size, d.DupExtraDelay, class, true, h, token)
			return 2
		}
		return 1
	}

	n.wanDeliver(src, dst, sc, dc, now, localArrive, size, 0, class, false, h, token)
	return 1
}

// wanLink returns the mutable state of the given wide-area edge,
// materializing its source node's row on first use.
func (n *Network) wanLink(edgeID int) *link {
	src := n.wg.Edge(edgeID).Src
	row := n.wanRows[src]
	if row == nil {
		row = make([]link, n.wg.OutDegree(src))
		n.wanRows[src] = row
	}
	return &row[edgeID-n.wg.RowStart(src)]
}

// wanEdgeSpeed returns the effective latency and bandwidth of one wide-area
// edge for one message offered to it at virtual time at: the global Params
// scaled by the edge's static factors, then by a dynamic regime's
// time-varying conditions — always degrading (latency up, bandwidth down).
func (n *Network) wanEdgeSpeed(edgeID int, e wantopo.Edge, at sim.Time) (sim.Time, float64) {
	lat, bw := n.params.WANLatency, n.params.WANBandwidth
	if e.LatScale != 1 {
		lat = sim.Time(float64(lat) * e.LatScale)
	}
	if e.BWScale != 1 {
		bw *= e.BWScale
	}
	if n.regime != nil {
		ls, bs, extra := n.regime.EdgeScale(edgeID, at)
		if ls != 1 {
			lat = sim.Time(float64(lat) * ls)
		}
		if bs != 1 {
			bw *= bs
		}
		lat += extra
	}
	return lat, bw
}

// wanPath books the message store-and-forward along every hop of the chosen
// route from cluster sc to cluster dc and returns the time the last byte
// clears the final wide-area pipe (the destination gateway's Ready time).
// The per-message gateway overhead is charged once, at the source; each hop
// then serializes on its own link FIFO and pays its own wire latency. Links
// serve messages in global send order (bookings happen when the send
// executes, even for downstream hops), the same FIFO approximation the
// single-link model has always used. Sends at one virtual instant book in
// the kernel's event order, so equal-time ties on a shared link go to the
// send scheduled first.
func (n *Network) wanPath(sc, dc int, localArrive sim.Time, size int64) sim.Time {
	ready := localArrive + n.params.WANPerMessage
	for _, id := range n.wg.Route(sc, dc) {
		e := n.wg.Edge(int(id))
		lat, bw := n.wanEdgeSpeed(int(id), e, ready)
		done := n.wanLink(int(id)).reserveWith(ready, size, bw,
			sim.Time(float64(2*lat)*n.params.WANMessageRTTFactor))
		ready = done + lat
	}
	return ready
}

// wanFirstHop books only the first hop of the route — the leg an in-flight
// fault loss occupies before the frame vanishes.
func (n *Network) wanFirstHop(sc, dc int, localArrive sim.Time, size int64) {
	route := n.wg.Route(sc, dc)
	if len(route) == 0 {
		return
	}
	e := n.wg.Edge(int(route[0]))
	lat, bw := n.wanEdgeSpeed(int(route[0]), e, localArrive+n.params.WANPerMessage)
	n.wanLink(int(route[0])).reserveWith(localArrive+n.params.WANPerMessage, size, bw,
		sim.Time(float64(2*lat)*n.params.WANMessageRTTFactor))
}

// wanDeliver runs the middle and final legs of a wide-area message: the
// store-and-forward hops along the chosen wide-area route, then
// redistribution by the remote gateway onto the fast network. extraDelay is
// injected reordering jitter, applied after the last hop — the shared links
// book occupancy eagerly in offer order, so only a post-gateway delay can
// actually deliver a later message before an earlier one.
func (n *Network) wanDeliver(src, dst, sc, dc int, sent, localArrive sim.Time,
	size int64, extraDelay sim.Time, class MsgClass, duplicate bool, h sim.EventHandler, token uint64) {
	ready := n.wanPath(sc, dc, localArrive, size)
	gwDone := n.gateways[dc].reserve(ready, size, n.params.IntraBandwidth)
	deliverAt := gwDone + n.params.IntraLatency + n.params.RecvOverhead + extraDelay
	n.k.ScheduleCall(deliverAt, h, token)
	if n.observer != nil {
		n.observer(MessageEvent{Src: src, Dst: dst, Bytes: size, Sent: sent,
			Delivered: deliverAt, WAN: true, Class: class, Duplicate: duplicate})
	}
}

// SetFaults installs a fault-injection plan on the wide-area links (nil
// disables injection). Call before any traffic. The fast intra-cluster
// network is never subject to faults. With a plan installed, applications
// need the reliable transport in package par to complete correctly.
func (n *Network) SetFaults(plan *faults.Plan) {
	n.faults = plan
	if plan != nil && n.faultIdx == nil {
		c := n.topo.Clusters()
		n.faultIdx = make([]int64, c*c)
	}
}

// SetRegime installs a dynamic-regime plan on the wide-area links (nil
// restores stationary conditions). Call before any traffic. The fast
// intra-cluster network is never regime-modulated. Churn drops count as
// FaultStats.OutageDropped — a churned-out cluster is an outage of every
// link touching it — and, like fault injection, require the reliable
// transport for applications to complete.
func (n *Network) SetRegime(pl *regime.Plan) { n.regime = pl }

// FaultStats returns the injected-fault counters.
func (n *Network) FaultStats() FaultStats { return n.faultStats }

// WANStats returns the accumulated statistics of the directed wide-area
// link from cluster src to cluster dst. The zero value if the graph has no
// such direct link (the pair communicates through intermediate hops).
func (n *Network) WANStats(src, dst int) LinkStats {
	id, ok := n.wg.EdgeBetween(src, dst)
	if !ok {
		return LinkStats{}
	}
	if row := n.wanRows[src]; row != nil {
		return row[id-n.wg.RowStart(src)].stats
	}
	return LinkStats{}
}

// TotalWAN sums traffic over all wide-area links, including links between
// relay switches.
func (n *Network) TotalWAN() LinkStats {
	var t LinkStats
	for _, row := range n.wanRows {
		for i := range row {
			t.Messages += row[i].stats.Messages
			t.Bytes += row[i].stats.Bytes
			t.BusyTime += row[i].stats.BusyTime
		}
	}
	return t
}

// ClusterWANOut sums traffic over the wide-area links leaving node c —
// Figure 1 reports per-cluster values of this. On multi-hop graphs it
// includes traffic the cluster's gateway forwards on behalf of others.
func (n *Network) ClusterWANOut(c int) LinkStats {
	var t LinkStats
	row := n.wanRows[c]
	for i := range row {
		t.Messages += row[i].stats.Messages
		t.Bytes += row[i].stats.Bytes
		t.BusyTime += row[i].stats.BusyTime
	}
	return t
}

// Intra returns aggregate fast-network traffic (messages that used a NIC,
// including the first leg of wide-area messages).
func (n *Network) Intra() IntraStats { return n.intra }

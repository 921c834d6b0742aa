package par

import (
	"fmt"

	"twolayer/internal/network"
	"twolayer/internal/sim"
)

// Transport tunes the go-back-N reliable channel that guards wide-area
// traffic when fault injection is active. The zero value selects defaults;
// set Enabled to use the reliable layer even on a fault-free network
// (useful for measuring pure protocol overhead).
type Transport struct {
	// Enabled forces the reliable layer on even when no faults are
	// injected. With faults enabled the layer is always on.
	Enabled bool
	// Window is the go-back-N window: the maximum number of unacknowledged
	// messages in flight per (sender, receiver) pair. Default 32.
	Window int
	// MaxRetries caps consecutive retransmission rounds without progress;
	// exceeding it fails the channel and surfaces a run error. Default 24.
	MaxRetries int
	// RTOMin is a floor on the retransmission timeout. Default 0 (the
	// timeout is derived from the network parameters alone).
	RTOMin sim.Time
	// AckBytes is the simulated wire size of an acknowledgement. Default 16.
	AckBytes int64
}

func (t Transport) withDefaults() Transport {
	if t.Window <= 0 {
		t.Window = 32
	}
	if t.MaxRetries <= 0 {
		t.MaxRetries = 24
	}
	if t.AckBytes <= 0 {
		t.AckBytes = 16
	}
	return t
}

// TransportError reports a failed reliable channel: the retry cap was
// exceeded with frames still unacknowledged. Sweep supervision treats it as
// a per-cell failure ("retry-cap"), not a harness error.
type TransportError struct {
	// Src and Dst are the channel's endpoints (global ranks).
	Src, Dst int
	// Retries is the configured cap that was exhausted.
	Retries int
	// Seq is the oldest unacknowledged sequence number.
	Seq int64
	// Unacked is the number of frames still in the window.
	Unacked int
}

func (e *TransportError) Error() string {
	return fmt.Sprintf(
		"par: reliable channel %d->%d failed: no ack after %d retransmission rounds (seq %d, %d frames unacked)",
		e.Src, e.Dst, e.Retries, e.Seq, e.Unacked)
}

// relConfig is the run-wide reliable-transport configuration: the resolved
// settings shared by every channel. The mutable protocol counters and
// channel failures live on each shard (LP-local under parallel execution;
// see shard.relStats and shard.relErrs), summed into the Result in shard
// order.
type relConfig struct {
	Transport
	rtoBase sim.Time
}

// rtoBase is a generous estimate of a wide-area round trip used to seed the
// retransmission timeout: data crosses two intra-cluster legs and the WAN
// leg, the ack comes back the same way, doubled for queueing slack. The
// per-frame transmission time is added when the timer is armed.
func rtoBase(p network.Params) sim.Time {
	oneWay := 2*p.IntraLatency + p.WANLatency + p.WANPerMessage +
		p.SendOverhead + p.RecvOverhead +
		sim.Time(p.WANMessageRTTFactor*float64(2*p.WANLatency))
	return 4 * oneWay
}

// relFrame is one unacknowledged message in a sender's window.
type relFrame struct {
	m     Msg
	bytes int64
	// sentAt is the first-transmission time and retx marks frames that have
	// been retransmitted since: per Karn's algorithm, only never-resent
	// frames yield unambiguous round-trip samples for the adaptive timeout.
	sentAt sim.Time
	retx   bool
}

// relSender is the go-back-N sending side for one (source rank, destination
// rank) pair. It is owned by the source Env's process: only that process
// blocks on the window, so the single-waiter Cond suffices.
type relSender struct {
	e   *Env
	dst int

	base, next int64 // base = oldest unacked seq, next = next seq to assign
	window     []relFrame
	retries    int    // consecutive timeout rounds without ack progress
	timerGen   uint64 // invalidates scheduled timeouts after acks/re-arms
	timerOn    bool
	full       sim.Cond
	failed     bool

	// Adaptive state (Options.Adaptive under a regime; zero and inert
	// otherwise): Jacobson-smoothed ack round trip and its variance, the
	// last payload size for the window autotuner's pipe estimate, and the
	// autotuner's ceiling (0 = the default 8x cap; halved toward the
	// configured window on every timeout, because go-back-N resends the
	// whole window and a grown window multiplies that cost).
	srtt, rttvar sim.Time
	lastBytes    int64
	winCeil      int
}

// BlockReason implements sim.BlockExplainer for deadlock diagnostics.
func (s *relSender) BlockReason() string {
	return fmt.Sprintf("reliable send window to rank %d full (%d unacked from seq %d)",
		s.dst, len(s.window), s.base)
}

// relFor returns (creating on first use) the reliable sender for dst.
func (e *Env) relFor(dst int) *relSender {
	if e.relS == nil {
		e.relS = make([]*relSender, e.rt.topo.Procs())
	}
	s := e.relS[dst]
	if s == nil {
		s = &relSender{e: e, dst: dst}
		e.relS[dst] = s
	}
	return s
}

// relSend queues m on the reliable channel to dst, blocking while the
// window is full. Called from the sending process's context.
func (e *Env) relSend(dst int, m Msg, bytes int64) {
	s := e.relFor(dst)
	// A failed channel never acks, so a full window blocks forever; the
	// deadlock then surfaces alongside the channel's own error.
	for len(s.window) >= s.windowLimit() {
		s.full.WaitExplained(e.p, s)
	}
	seq := s.next
	s.next++
	s.lastBytes = bytes
	s.window = append(s.window, relFrame{m: m, bytes: bytes, sentAt: e.sh.k.Now()})
	s.transmit(seq, s.window[len(s.window)-1], network.ClassData)
	if !s.timerOn {
		s.arm()
	}
}

// windowLimit is the effective go-back-N window. Statically it is the
// configured Window; an adaptive run with a round-trip estimate grows it
// toward srtt/serialization so a regime-inflated round trip cannot strand
// the pipe idle with every credit consumed. Growth is AIMD-guarded: the
// ceiling starts at 8x the configured window and halves on every timeout
// (see onTimeout), because go-back-N resends the whole window and a grown
// window multiplies the cost of a spurious timeout. Under sustained
// timeouts the limit decays back to the static window, so the adaptive
// transport can never lose more to retransmission than the static one.
func (s *relSender) windowLimit() int {
	cfg := s.e.rt.rel
	if !s.e.rt.adaptive || s.srtt == 0 {
		return cfg.Window
	}
	per := 2 * sim.TransmissionTime(s.lastBytes+cfg.AckBytes, s.e.sh.net.Params().WANBandwidth)
	if per <= 0 {
		return cfg.Window
	}
	need := int(s.srtt/per) + 1
	if need < cfg.Window {
		return cfg.Window
	}
	if lim := s.ceiling(); need > lim {
		return lim
	}
	return need
}

// ceiling is the autotuner's current cap (0 lazily means the default 8x).
func (s *relSender) ceiling() int {
	if s.winCeil == 0 {
		return 8 * s.e.rt.rel.Window
	}
	return s.winCeil
}

// transmit puts one frame on the wire; delivery lands in the receiver's
// reliable layer, not directly in the mailbox. The delivery fires on the
// receiver's kernel (under parallel execution its envelope moves to the
// receiver's shard at the barrier), and relDeliver touches only
// receiver-local state.
func (s *relSender) transmit(seq int64, f relFrame, class network.MsgClass) {
	if s.failed {
		return
	}
	s.e.sh.send(s.e.rank, f.bytes, class, envelope{m: f.m, seq: seq, dst: int32(s.dst), kind: envFrame})
}

// rto returns the current retransmission timeout: the base round trip plus
// the oldest frame's (and its ack's) transmission time, doubled per
// fruitless retry round.
func (s *relSender) rto() sim.Time {
	cfg := s.e.rt.rel
	d := cfg.rtoBase
	if s.srtt > 0 && s.e.rt.lossy {
		// Adaptive runs raise the timeout to the Jacobson estimate when a
		// regime has inflated the observed round trip past the static
		// derivation — a diurnal peak would otherwise make every in-flight
		// window time out "spuriously" and be resent in full. The static
		// base stays as the floor: an underestimate (a sample taken in a
		// trough) must never trigger earlier than the stationary analysis
		// says is safe. srtt is only ever written under Options.Adaptive, so
		// static runs take the historical path bit for bit. The estimate
		// engages only when frames can actually be lost (injected faults or
		// churn): under a delay-only regime nothing is ever dropped, a
		// timeout is a harmless probe whose duplicate re-triggers a
		// cumulative ack, and holding the channel quiet for a conservatively
		// long estimate only idles it.
		if est := s.srtt + 4*s.rttvar; est > d {
			d = est
		}
	}
	if len(s.window) > 0 {
		p := s.e.sh.net.Params()
		d += 2 * sim.TransmissionTime(s.window[0].bytes+cfg.AckBytes, p.WANBandwidth)
	}
	shift := s.retries
	if shift > 10 {
		shift = 10 // beyond 2^10 the backoff dwarfs any queueing delay
	}
	d <<= shift
	if s.retries > 0 {
		// Spread each backed-off timeout by a deterministic pseudo-random
		// fraction of itself. Once the shift caps, a constant retry cadence
		// can phase-lock with a periodic link outage — every probe (or its
		// ack) landing inside the blackout window, forever — so successive
		// probes must sample different outage phases.
		h := mix64(uint64(s.e.rank)<<40 ^ uint64(s.dst)<<20 ^
			uint64(s.base)<<8 ^ uint64(s.retries))
		d += sim.Time(float64(d) * (float64(h>>11) / (1 << 53)))
	}
	if d < cfg.RTOMin {
		d = cfg.RTOMin
	}
	return d
}

// observeRTT folds one unambiguous ack round-trip sample into the Jacobson
// estimator (RFC 6298 gains: 1/8 on the mean, 1/4 on the deviation). All in
// integer virtual time, so the estimate is bit-reproducible.
func (s *relSender) observeRTT(sample sim.Time) {
	if s.srtt == 0 {
		s.srtt = sample
		s.rttvar = sample / 2
		return
	}
	diff := sample - s.srtt
	if diff < 0 {
		diff = -diff
	}
	s.srtt += (sample - s.srtt) / 8
	s.rttvar += (diff - s.rttvar) / 4
}

// mix64 is the splitmix64 finalizer (same construction package faults
// uses): a cheap, well-distributed hash for the timeout spread.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// arm schedules (or reschedules) the retransmission timer for the current
// window. Any previously scheduled timeout is invalidated by the generation
// counter, which rides along as the event token — the timer path allocates
// no closure.
func (s *relSender) arm() {
	k := s.e.sh.k
	s.armAt(k.Now() + s.rto())
}

// armAt schedules the retransmission timer for an absolute time.
func (s *relSender) armAt(at sim.Time) {
	s.timerGen++
	s.timerOn = true
	s.e.sh.k.ScheduleCall(at, s, s.timerGen)
}

// HandleEvent implements sim.EventHandler for the retransmission timer; the
// token is the generation the timeout was armed for.
func (s *relSender) HandleEvent(gen uint64) { s.onTimeout(gen) }

// onTimeout fires when the oldest frame went unacknowledged for a full RTO:
// go-back-N resends the entire window with exponential backoff. Exceeding
// the retry cap fails the channel and records a run error.
func (s *relSender) onTimeout(gen uint64) {
	if gen != s.timerGen || s.failed || len(s.window) == 0 {
		return // stale timer, or everything got acked meanwhile
	}
	s.timerOn = false
	cfg := s.e.rt.rel
	s.e.sh.relStats.Timeouts++
	// Churn-aware hold-off: when the regime says an endpoint's whole
	// cluster is churned out right now, retransmitting is futile (the
	// gateway drops everything) and escalating the backoff just delays the
	// repair past the rejoin. Re-arm for just after the scheduled rejoin
	// instead, without burning a retry round — planned downtime is not
	// congestion. The rejoin time is a pure function of the regime, so this
	// stays deterministic at every worker count.
	if hold, ok := s.churnHold(); ok {
		s.armAt(hold)
		return
	}
	if s.e.rt.adaptive {
		// Multiplicative decrease on the window autotuner: a timeout means
		// every grown credit is about to be resent in full.
		if half := s.ceiling() / 2; half > cfg.Window {
			s.winCeil = half
		} else {
			s.winCeil = cfg.Window
		}
	}
	s.retries++
	if s.retries > cfg.MaxRetries {
		s.failed = true
		s.e.sh.relErrs = append(s.e.sh.relErrs, &TransportError{
			Src: s.e.rank, Dst: s.dst, Retries: cfg.MaxRetries,
			Seq: s.base, Unacked: len(s.window)})
		return
	}
	for i := range s.window {
		s.e.sh.relStats.Retransmits++
		s.window[i].retx = true
		s.transmit(s.base+int64(i), s.window[i], network.ClassRetrans)
	}
	s.arm()
}

// churnHold reports whether an adaptive sender should sit out a churn
// window, and until when: the later rejoin time of the two endpoints'
// clusters plus a deterministic per-channel spread (so every held channel
// does not probe in the same instant after the rejoin).
func (s *relSender) churnHold() (sim.Time, bool) {
	rt := s.e.rt
	if !rt.adaptive || !rt.regime.HasChurn() {
		return 0, false
	}
	now := s.e.sh.k.Now()
	up := now
	if t := rt.regime.UpAt(rt.topo.ClusterOf(s.e.rank), now); t > up {
		up = t
	}
	if t := rt.regime.UpAt(rt.topo.ClusterOf(s.dst), now); t > up {
		up = t
	}
	if up == now {
		return 0, false
	}
	h := mix64(uint64(s.e.rank)<<40 ^ uint64(s.dst)<<20 ^ uint64(s.base)<<8 ^ 0x5c)
	return up + sim.Time(float64(s.e.rt.rel.rtoBase)*(float64(h>>11)/(1<<53))), true
}

// relDeliver is the receiving side: accept in-order frames, discard
// duplicates and gaps (go-back-N keeps no out-of-order buffer), and answer
// every frame with a cumulative ack so lost acks are repaired by later
// traffic. Runs in kernel context.
func (e *Env) relDeliver(src int, seq int64, m Msg) {
	cfg := e.rt.rel
	if e.relExp == nil {
		e.relExp = make([]int64, e.rt.topo.Procs())
	}
	switch exp := e.relExp[src]; {
	case seq == exp:
		e.relExp[src] = exp + 1
		e.sh.k.NoteProgress() // new in-order delivery: the application advanced
		e.mb.deliver(m)
	case seq < exp:
		e.sh.relStats.Duplicates++ // retransmission of something already delivered
	default:
		e.sh.relStats.OutOfOrder++ // gap: an earlier frame was lost or jittered past
	}
	cum := e.relExp[src] - 1
	if cum < 0 {
		return // nothing received in order yet; an ack would carry no information
	}
	e.sh.relStats.Acks++
	e.sh.send(e.rank, cfg.AckBytes, network.ClassAck,
		envelope{m: Msg{From: e.rank}, seq: cum, dst: int32(src), kind: envAck})
}

// relAck processes a cumulative acknowledgement from dst covering every
// sequence number up to cum. Runs in kernel context.
func (e *Env) relAck(from int, cum int64) {
	if e.relS == nil {
		return
	}
	s := e.relS[from]
	if s == nil || s.failed || cum < s.base {
		return // duplicate or stale ack
	}
	n := cum - s.base + 1
	if n > int64(len(s.window)) {
		n = int64(len(s.window)) // acks beyond the window cannot happen, but stay safe
	}
	if e.rt.adaptive {
		// Sample the round trip from the newest acked frame that was never
		// retransmitted (Karn's rule: a resent frame's ack is ambiguous).
		for i := n - 1; i >= 0; i-- {
			if s.window[i].retx {
				continue
			}
			if sample := e.sh.k.Now() - s.window[i].sentAt; sample > 0 {
				s.observeRTT(sample)
			}
			break
		}
	}
	s.window = append(s.window[:0], s.window[n:]...)
	s.base += n
	s.retries = 0
	// A cumulative ack moving the window is the transport-level progress the
	// livelock watchdog watches for: a retransmit storm fires timers forever
	// without ever reaching this line.
	e.sh.k.NoteProgress()
	if len(s.window) > 0 {
		s.arm()
	} else {
		s.timerGen++ // cancel the pending timer
		s.timerOn = false
	}
	if s.full.Waiting() {
		s.full.Signal()
	}
}

package trace

import (
	"fmt"
	"sort"
	"strings"

	"twolayer/internal/sim"
)

// timelineBins is the fixed size of the wide-area timeline histogram.
const timelineBins = 64

// Stream is the trace sink: it folds every message and span into running
// aggregates instead of retaining them. A traced run therefore allocates a
// fixed few slices at construction and nothing per message, and its memory
// is O(procs) instead of O(messages).
//
// The differential test in this package pins every view against a
// test-only oracle that retains the raw events, and internal/core pins the
// golden variants' aggregates by digest.
type Stream struct {
	Procs int

	comm []int64    // procs*procs flat first-transmission payload bytes
	busy []sim.Time // per-rank compute time

	// Summary accumulators, updated in record order.
	messages    int
	wanMessages int
	dropped     int
	bytes       int64
	wanBytes    int64
	transit     sim.Time
	wanTransit  sim.Time
	maxTransit  sim.Time

	// wanTimeline holds wide-area bytes by send time in bins of
	// 1<<wanShift nanoseconds. A send past the last bin folds adjacent bins
	// pairwise, doubling the width, until it fits, so the histogram spans
	// any run in constant memory.
	wanTimeline [timelineBins]int64
	wanShift    uint

	transport TransportStats
}

// NewStream creates a streaming sink for a machine with procs processors.
// All memory the sink will ever use is allocated here.
func NewStream(procs int) *Stream {
	return &Stream{
		Procs: procs,
		comm:  make([]int64, procs*procs),
		busy:  make([]sim.Time, procs),
	}
}

// RecordMessage folds one message into the running aggregates. It performs
// no heap allocation.
func (s *Stream) RecordMessage(m Message) {
	if m.Kind == KindData && !m.Dup {
		// A dropped first transmission still is the payload's logical
		// traffic (its retransmission will be KindRetrans), so the comm
		// matrix counts it.
		s.comm[m.Src*s.Procs+m.Dst] += m.Bytes
	}
	if m.WAN {
		// The timeline charges every wide-area copy on the wire, acks and
		// dropped copies included.
		s.recordWAN(m.Sent, m.Bytes)
	}
	if m.Dropped {
		s.dropped++
		return
	}
	s.messages++
	s.bytes += m.Bytes
	d := m.Delivered - m.Sent
	s.transit += d
	if d > s.maxTransit {
		s.maxTransit = d
	}
	if m.WAN {
		s.wanMessages++
		s.wanBytes += m.Bytes
		s.wanTransit += d
	}
}

// recordWAN adds bytes to the timeline bin of send time sent, widening the
// bins first if sent lies past the last one.
func (s *Stream) recordWAN(sent sim.Time, bytes int64) {
	bin := uint64(sent) >> s.wanShift
	for bin >= timelineBins {
		for i := 0; i < timelineBins/2; i++ {
			s.wanTimeline[i] = s.wanTimeline[2*i] + s.wanTimeline[2*i+1]
		}
		clear(s.wanTimeline[timelineBins/2:])
		s.wanShift++
		bin >>= 1
	}
	s.wanTimeline[bin] += bytes
}

// RecordSpan folds one computation interval into the per-rank busy time.
func (s *Stream) RecordSpan(sp Span) {
	s.busy[sp.Rank] += sp.End - sp.Start
}

// RecordTransport stores the run's reliable-transport counters.
func (s *Stream) RecordTransport(ts TransportStats) { s.transport = ts }

// TransportCounters returns the reliable-transport counters of the run.
func (s *Stream) TransportCounters() TransportStats { return s.transport }

// Summarize returns the aggregate statistics.
func (s *Stream) Summarize() Summary {
	sum := Summary{
		Messages:    s.messages,
		WANMessages: s.wanMessages,
		Dropped:     s.dropped,
		Bytes:       s.bytes,
		WANBytes:    s.wanBytes,
		MaxTransit:  s.maxTransit,
	}
	if s.messages > 0 {
		sum.MeanTransit = s.transit / sim.Time(s.messages)
	}
	if s.wanMessages > 0 {
		sum.MeanWANTransit = s.wanTransit / sim.Time(s.wanMessages)
	}
	return sum
}

// CommMatrix returns the logical application traffic from each rank to each
// rank: every payload counted exactly once by its first transmission.
// Retransmissions, injected duplicates and transport acks are protocol
// overhead, not communication structure, so they never double-count here
// — the matrix of a faulty run matches its fault-free twin. (WAN link
// statistics, in contrast, do charge every copy on the wire.)
//
// The rows alias the sink's internal flat array; callers treat the result
// as read-only.
func (s *Stream) CommMatrix() [][]int64 {
	m := make([][]int64, s.Procs)
	for i := range m {
		m[i] = s.comm[i*s.Procs : (i+1)*s.Procs : (i+1)*s.Procs]
	}
	return m
}

// Utilization returns each rank's fraction of the horizon spent computing.
func (s *Stream) Utilization(horizon sim.Time) []float64 {
	out := make([]float64, s.Procs)
	if horizon > 0 {
		for i, b := range s.busy {
			out[i] = float64(b) / float64(horizon)
		}
	}
	return out
}

// Pair is one sender-receiver entry of the communication matrix.
type Pair struct {
	Src, Dst int
	Bytes    int64
}

// TopPairs returns the k busiest sender-receiver pairs by logical payload
// bytes, ties broken by sender, then receiver.
func (s *Stream) TopPairs(k int) []Pair {
	var pairs []Pair
	for i, v := range s.comm {
		if v > 0 {
			pairs = append(pairs, Pair{Src: i / s.Procs, Dst: i % s.Procs, Bytes: v})
		}
	}
	// The scan is in (sender, receiver) order, so a stable sort keeps ties
	// in that order.
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].Bytes > pairs[j].Bytes })
	if k < len(pairs) {
		pairs = pairs[:k]
	}
	return pairs
}

// heat maps a value in [0,1] to a character ramp.
func heat(frac float64) byte {
	const ramp = " .:-=+*#%@"
	idx := int(frac * float64(len(ramp)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ramp) {
		idx = len(ramp) - 1
	}
	return ramp[idx]
}

// RenderCommMatrix draws the communication matrix as a text heat map
// (rows: senders, columns: receivers), normalized to the busiest pair.
func (s *Stream) RenderCommMatrix() string {
	m := s.CommMatrix()
	var max int64 = 1
	for _, v := range s.comm {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "communication matrix (%d ranks, max pair %d bytes):\n", len(m), max)
	for i, row := range m {
		fmt.Fprintf(&b, "%3d |", i)
		for _, v := range row {
			b.WriteByte(heat(float64(v) / float64(max)))
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// RenderUtilization draws per-rank compute utilization bars over the given
// horizon.
func (s *Stream) RenderUtilization(horizon sim.Time) string {
	util := s.Utilization(horizon)
	var b strings.Builder
	fmt.Fprintf(&b, "compute utilization over %v:\n", horizon)
	for r, u := range util {
		bar := int(u*40 + 0.5)
		fmt.Fprintf(&b, "%3d |%s%s| %5.1f%%\n", r,
			strings.Repeat("#", bar), strings.Repeat(" ", 40-bar), 100*u)
	}
	return b.String()
}

// Timeline renders wide-area traffic over time as volume bars, so bursts
// and phases are visible. The rows are the narrowest power-of-two width
// that covers horizon in at most buckets rows (and is no finer than the
// histogram's bins); sends at or past the horizon land in the last row.
func (s *Stream) Timeline(horizon sim.Time, buckets int) string {
	vol, width := s.timeline(horizon, buckets)
	if vol == nil {
		return ""
	}
	var max int64 = 1
	for _, v := range vol {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "wide-area traffic over time (%d buckets of %v):\n", len(vol), width)
	for i, v := range vol {
		bar := int(float64(v) / float64(max) * 40)
		fmt.Fprintf(&b, "%3d |%s\n", i, strings.Repeat("#", bar))
	}
	return b.String()
}

// timeline folds a copy of the histogram into the rows Timeline renders and
// returns them with their width; nil for a non-positive horizon or bucket
// count.
func (s *Stream) timeline(horizon sim.Time, buckets int) ([]int64, sim.Time) {
	if buckets <= 0 || horizon <= 0 {
		return nil, 0
	}
	// ceil(horizon / 2^shift) rows of width 2^shift.
	shift := s.wanShift
	for (horizon-1)>>shift >= sim.Time(buckets) {
		shift++
	}
	vol := make([]int64, int((horizon-1)>>shift)+1)
	for i, v := range s.wanTimeline {
		vol[min(i>>(shift-s.wanShift), len(vol)-1)] += v
	}
	return vol, sim.Time(1) << shift
}

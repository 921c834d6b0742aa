package trace

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"twolayer/internal/sim"
)

// oracle is the reference sink: it retains every event and computes each
// view naively from the raw stream, the way a post-hoc analysis would.
type oracle struct {
	procs     int
	messages  []Message
	spans     []Span
	transport TransportStats
}

func (o *oracle) RecordMessage(m Message)           { o.messages = append(o.messages, m) }
func (o *oracle) RecordSpan(s Span)                 { o.spans = append(o.spans, s) }
func (o *oracle) RecordTransport(ts TransportStats) { o.transport = ts }

func (o *oracle) summarize() Summary {
	var s Summary
	var transit, wanTransit sim.Time
	for _, m := range o.messages {
		if m.Dropped {
			s.Dropped++
			continue
		}
		s.Messages++
		s.Bytes += m.Bytes
		d := m.Delivered - m.Sent
		transit += d
		if d > s.MaxTransit {
			s.MaxTransit = d
		}
		if m.WAN {
			s.WANMessages++
			s.WANBytes += m.Bytes
			wanTransit += d
		}
	}
	if s.Messages > 0 {
		s.MeanTransit = transit / sim.Time(s.Messages)
	}
	if s.WANMessages > 0 {
		s.MeanWANTransit = wanTransit / sim.Time(s.WANMessages)
	}
	return s
}

func (o *oracle) commMatrix() [][]int64 {
	m := make([][]int64, o.procs)
	for i := range m {
		m[i] = make([]int64, o.procs)
	}
	for _, msg := range o.messages {
		if msg.Kind == KindData && !msg.Dup {
			m[msg.Src][msg.Dst] += msg.Bytes
		}
	}
	return m
}

func (o *oracle) utilization(horizon sim.Time) []float64 {
	busy := make([]sim.Time, o.procs)
	for _, s := range o.spans {
		busy[s.Rank] += s.End - s.Start
	}
	out := make([]float64, o.procs)
	for i, b := range busy {
		if horizon > 0 {
			out[i] = float64(b) / float64(horizon)
		}
	}
	return out
}

// timeline buckets every wide-area send directly at the width the
// streaming histogram must reach: its bins are the narrowest power of two
// that holds the latest send in 64 bins, and the rows the narrowest power
// of two at least that wide that covers horizon in at most buckets rows.
func (o *oracle) timeline(horizon sim.Time, buckets int) ([]int64, sim.Time) {
	if buckets <= 0 || horizon <= 0 {
		return nil, 0
	}
	var last sim.Time
	for _, m := range o.messages {
		if m.WAN && m.Sent > last {
			last = m.Sent
		}
	}
	width := sim.Time(1)
	for last/width >= 64 || (horizon+width-1)/width > sim.Time(buckets) {
		width *= 2
	}
	rows := int((horizon + width - 1) / width)
	vol := make([]int64, rows)
	for _, m := range o.messages {
		if m.WAN {
			vol[min(int(m.Sent/width), rows-1)] += m.Bytes
		}
	}
	return vol, width
}

func (o *oracle) topPairs(k int) []Pair {
	var pairs []Pair
	for s, row := range o.commMatrix() {
		for d, v := range row {
			if v > 0 {
				pairs = append(pairs, Pair{s, d, v})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Bytes != pairs[j].Bytes {
			return pairs[i].Bytes > pairs[j].Bytes
		}
		if pairs[i].Src != pairs[j].Src {
			return pairs[i].Src < pairs[j].Src
		}
		return pairs[i].Dst < pairs[j].Dst
	})
	return pairs[:min(k, len(pairs))]
}

// views is the JSON form of the aggregate views a traced run reports.
type views struct {
	Summary     Summary        `json:"summary"`
	CommMatrix  [][]int64      `json:"comm_matrix"`
	Utilization []float64      `json:"utilization"`
	Transport   TransportStats `json:"transport"`
}

// feedBoth feeds an identical pseudo-random event stream to the oracle and
// the streaming sink: messages of every kind (data, retrans, ack, dup,
// dropped, WAN and LAN), interleaved compute spans, and transport counters.
// The clock advances by up to maxStep per event.
func feedBoth(seed int64, procs, n, maxStep int) (*oracle, *Stream) {
	o := &oracle{procs: procs}
	s := NewStream(procs)
	for _, sink := range []Sink{o, s} {
		r := rand.New(rand.NewSource(seed))
		clock := sim.Time(0)
		for i := 0; i < n; i++ {
			clock += sim.Time(r.Intn(maxStep))
			if r.Intn(4) == 0 {
				rank := r.Intn(procs)
				d := sim.Time(r.Intn(100000))
				sink.RecordSpan(Span{Rank: rank, Start: clock, End: clock + d})
				continue
			}
			m := Message{
				Src:   r.Intn(procs),
				Dst:   r.Intn(procs),
				Bytes: int64(r.Intn(1 << 16)),
				Sent:  clock,
				WAN:   r.Intn(2) == 0,
				Kind:  MsgKind(r.Intn(3)),
			}
			m.Delivered = m.Sent + sim.Time(r.Intn(int(30*sim.Millisecond)))
			if r.Intn(8) == 0 {
				m.Dup = true
			}
			if r.Intn(10) == 0 {
				m.Dropped = true
			}
			sink.RecordMessage(m)
		}
		sink.RecordTransport(TransportStats{
			Timeouts: 11, Retransmits: 7, Acks: 9, Duplicates: 3, OutOfOrder: 2,
		})
	}
	return o, s
}

// TestStreamMatchesOracleRandom is the sink differential test: over
// randomized event streams, the streaming sink's aggregates must be
// byte-identical (as JSON) to the oracle's, and its timeline (at every row
// width) and busiest pairs bit-identical.
func TestStreamMatchesOracleRandom(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		procs := 2 + int(seed)%14
		// Small steps keep the histogram at its finest bins; large ones
		// make it fold many times.
		maxStep := []int{2, 50, 5000, 1 << 20}[seed%4]
		n := 4000
		o, s := feedBoth(seed, procs, n, maxStep)
		end := sim.Time(n * maxStep / 2)
		for _, horizon := range []sim.Time{end, 0, 1, end / 3, 3 * end} {
			oj, err := json.Marshal(views{o.summarize(), o.commMatrix(), o.utilization(horizon), o.transport})
			if err != nil {
				t.Fatal(err)
			}
			sj, err := json.Marshal(views{s.Summarize(), s.CommMatrix(), s.Utilization(horizon), s.TransportCounters()})
			if err != nil {
				t.Fatal(err)
			}
			if string(oj) != string(sj) {
				t.Fatalf("seed %d horizon %v: aggregates differ\noracle: %s\nstream: %s", seed, horizon, oj, sj)
			}
			for buckets := 0; buckets <= 80; buckets++ {
				ov, ow := o.timeline(horizon, buckets)
				sv, sw := s.timeline(horizon, buckets)
				if ow != sw || !reflect.DeepEqual(ov, sv) {
					t.Fatalf("seed %d horizon %v buckets %d: timeline %v x %v, oracle %v x %v",
						seed, horizon, buckets, sv, sw, ov, ow)
				}
			}
		}
		for _, k := range []int{0, 1, 5, procs * procs, procs*procs + 1} {
			if got, want := s.TopPairs(k), o.topPairs(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: TopPairs(%d) = %v, oracle %v", seed, k, got, want)
			}
		}
	}
}

// TestStreamRecordNoAlloc pins the streaming sink's per-event allocation
// budget to zero, timeline folding included.
func TestStreamRecordNoAlloc(t *testing.T) {
	s := NewStream(16)
	m := Message{Src: 3, Dst: 9, Bytes: 4096, Sent: 10, Delivered: 500, WAN: true}
	late := Message{Src: 3, Dst: 9, Bytes: 4096, Sent: 1 << 40, Delivered: 1<<40 + 500, WAN: true}
	sp := Span{Rank: 5, Start: 0, End: 100}
	if a := testing.AllocsPerRun(100, func() { s.RecordMessage(m) }); a != 0 {
		t.Errorf("RecordMessage allocates %.1f per event, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { s.RecordMessage(late) }); a != 0 {
		t.Errorf("RecordMessage with a timeline fold allocates %.1f per event, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { s.RecordSpan(sp) }); a != 0 {
		t.Errorf("RecordSpan allocates %.1f per event, want 0", a)
	}
}

// TestStreamCounters spot-checks the delivered, wide-area and dropped
// counts and the comm matrix over messages of every kind.
func TestStreamCounters(t *testing.T) {
	s := NewStream(4)
	s.RecordMessage(Message{Src: 0, Dst: 1, Bytes: 10, Kind: KindData})
	s.RecordMessage(Message{Src: 0, Dst: 2, Bytes: 10, Kind: KindData, WAN: true})
	s.RecordMessage(Message{Src: 0, Dst: 2, Bytes: 10, Kind: KindData, WAN: true, Dup: true})
	s.RecordMessage(Message{Src: 0, Dst: 2, Bytes: 10, Kind: KindRetrans, WAN: true})
	s.RecordMessage(Message{Src: 2, Dst: 0, Bytes: 4, Kind: KindAck, WAN: true})
	s.RecordMessage(Message{Src: 0, Dst: 2, Bytes: 10, Kind: KindData, WAN: true, Dropped: true})
	sum := s.Summarize()
	if sum.Messages != 5 || sum.WANMessages != 4 || sum.Dropped != 1 {
		t.Errorf("counts %+v, want 5 delivered, 4 wide-area, 1 dropped", sum)
	}
	if sum.Bytes != 44 || sum.WANBytes != 34 {
		t.Errorf("bytes %+v, want 44 delivered, 34 wide-area", sum)
	}
	// The duplicate, the retransmission and the ack stay out of the comm
	// matrix; the dropped first transmission is logical traffic and counts.
	m := s.CommMatrix()
	if m[0][2] != 20 {
		t.Errorf("comm[0][2] = %d, want 20 (first transmissions only)", m[0][2])
	}
	if m[0][1] != 10 {
		t.Errorf("comm[0][1] = %d, want 10", m[0][1])
	}
	if m[2][0] != 0 {
		t.Errorf("comm[2][0] = %d, want 0 (acks are protocol overhead)", m[2][0])
	}
}

// TestTimelineFolds pins the histogram's folding: 64 one-nanosecond bins
// until a send lands past them, then pairwise merges that double the width.
func TestTimelineFolds(t *testing.T) {
	s := NewStream(2)
	for i := 0; i < timelineBins; i++ {
		s.RecordMessage(Message{Src: 0, Dst: 1, Bytes: int64(i), Sent: sim.Time(i), WAN: true})
	}
	if s.wanShift != 0 {
		t.Fatalf("shift %d before any send past the bins, want 0", s.wanShift)
	}
	s.RecordMessage(Message{Src: 0, Dst: 1, Bytes: 1000, Sent: 4 * timelineBins, WAN: true})
	if s.wanShift != 3 {
		t.Fatalf("shift %d after a send at 4x the span, want 3", s.wanShift)
	}
	// Bin 0 now holds sends 0..7; the late send sits in bin 32.
	if s.wanTimeline[0] != 0+1+2+3+4+5+6+7 || s.wanTimeline[32] != 1000 {
		t.Errorf("bins %v", s.wanTimeline)
	}
	// LAN sends leave the timeline alone.
	s.RecordMessage(Message{Src: 0, Dst: 1, Bytes: 5, Sent: 1 << 30})
	if s.wanShift != 3 {
		t.Errorf("a LAN send widened the timeline to shift %d", s.wanShift)
	}
}

// TestCommMatrixFlatBacking verifies the flat-array layout still renders a
// correct matrix per row.
func TestCommMatrixFlatBacking(t *testing.T) {
	s := NewStream(3)
	s.RecordMessage(Message{Src: 0, Dst: 2, Bytes: 5})
	s.RecordMessage(Message{Src: 2, Dst: 1, Bytes: 7})
	m := s.CommMatrix()
	if len(m) != 3 || len(m[0]) != 3 {
		t.Fatalf("matrix shape %dx%d, want 3x3", len(m), len(m[0]))
	}
	if m[0][2] != 5 || m[2][1] != 7 || m[1][1] != 0 {
		t.Errorf("matrix %v wrong", m)
	}
	// Rows must not be appendable into each other (full slice expressions).
	m[0] = append(m[0], 99)
	if m[1][0] == 99 {
		t.Error("row append overwrote the next row: missing capacity clamp")
	}
}

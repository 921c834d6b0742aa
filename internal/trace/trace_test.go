package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"twolayer/internal/sim"
)

func sample() *Stream {
	c := NewStream(4)
	c.RecordMessage(Message{Src: 0, Dst: 1, Bytes: 100, Sent: 0, Delivered: sim.Millisecond})
	c.RecordMessage(Message{Src: 0, Dst: 1, Bytes: 50, Sent: sim.Millisecond, Delivered: 3 * sim.Millisecond})
	c.RecordMessage(Message{Src: 2, Dst: 3, Bytes: 500, Sent: 0, Delivered: 11 * sim.Millisecond, WAN: true})
	c.RecordSpan(Span{Rank: 0, Start: 0, End: 5 * sim.Millisecond})
	c.RecordSpan(Span{Rank: 1, Start: 0, End: 10 * sim.Millisecond})
	return c
}

func TestCommMatrix(t *testing.T) {
	m := sample().CommMatrix()
	if m[0][1] != 150 || m[2][3] != 500 || m[1][0] != 0 {
		t.Errorf("matrix %v", m)
	}
}

func TestSummarize(t *testing.T) {
	s := sample().Summarize()
	if s.Messages != 3 || s.WANMessages != 1 {
		t.Errorf("counts %+v", s)
	}
	if s.Bytes != 650 || s.WANBytes != 500 {
		t.Errorf("bytes %+v", s)
	}
	if s.MaxTransit != 11*sim.Millisecond {
		t.Errorf("max transit %v", s.MaxTransit)
	}
	if s.MeanWANTransit != 11*sim.Millisecond {
		t.Errorf("mean WAN transit %v", s.MeanWANTransit)
	}
}

func TestUtilization(t *testing.T) {
	u := sample().Utilization(10 * sim.Millisecond)
	if u[0] != 0.5 || u[1] != 1.0 || u[2] != 0 {
		t.Errorf("utilization %v", u)
	}
}

func TestRenderers(t *testing.T) {
	c := sample()
	if s := c.RenderCommMatrix(); !strings.Contains(s, "4 ranks") {
		t.Errorf("matrix render: %q", s)
	}
	if s := c.RenderUtilization(10 * sim.Millisecond); !strings.Contains(s, "100.0%") {
		t.Errorf("utilization render: %q", s)
	}
	// 20ms in at most 4 rows: the narrowest power-of-two width is 2^23 ns.
	if s := c.Timeline(20*sim.Millisecond, 4); !strings.Contains(s, "3 buckets of 8.389ms") {
		t.Errorf("timeline render: %q", s)
	}
	if c.Timeline(0, 4) != "" || c.Timeline(sim.Second, 0) != "" {
		t.Error("degenerate timeline should be empty")
	}
}

func TestTopPairs(t *testing.T) {
	top := sample().TopPairs(5)
	if len(top) != 2 {
		t.Fatalf("%d pairs", len(top))
	}
	if top[0].Src != 2 || top[0].Dst != 3 || top[0].Bytes != 500 {
		t.Errorf("top pair %+v", top[0])
	}
	if one := sample().TopPairs(1); len(one) != 1 {
		t.Errorf("k bound not respected")
	}
}

// Property: the matrix total always equals the summary's byte total.
func TestMatrixTotalsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		c := NewStream(8)
		for i, v := range raw {
			c.RecordMessage(Message{
				Src: i % 8, Dst: (i * 3) % 8, Bytes: int64(v),
				Sent: sim.Time(i), Delivered: sim.Time(i + 1), WAN: i%2 == 0,
			})
		}
		var total int64
		for _, row := range c.CommMatrix() {
			for _, v := range row {
				total += v
			}
		}
		return total == c.Summarize().Bytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHeatRamp(t *testing.T) {
	if heat(0) != ' ' || heat(1) != '@' {
		t.Errorf("ramp ends: %q %q", heat(0), heat(1))
	}
	if heat(-1) != ' ' || heat(2) != '@' {
		t.Error("out-of-range values should clamp")
	}
}

// faultySample is a trace with reliable-transport traffic on top of the
// logical payloads: a retransmission of a dropped payload, an injected
// duplicate, and acks.
func faultySample() *Stream {
	c := NewStream(4)
	// Payload 0->1, dropped in flight, then retransmitted successfully.
	c.RecordMessage(Message{Src: 0, Dst: 1, Bytes: 100, Sent: 0, Delivered: sim.Millisecond, WAN: true, Dropped: true})
	c.RecordMessage(Message{Src: 0, Dst: 1, Bytes: 100, Sent: 2 * sim.Millisecond, Delivered: 3 * sim.Millisecond, WAN: true, Kind: KindRetrans})
	// Payload 2->3, duplicated by the network: both copies delivered.
	c.RecordMessage(Message{Src: 2, Dst: 3, Bytes: 500, Sent: 0, Delivered: 4 * sim.Millisecond, WAN: true})
	c.RecordMessage(Message{Src: 2, Dst: 3, Bytes: 500, Sent: 0, Delivered: 6 * sim.Millisecond, WAN: true, Dup: true})
	// Acks flowing back.
	c.RecordMessage(Message{Src: 1, Dst: 0, Bytes: 16, Sent: 3 * sim.Millisecond, Delivered: 5 * sim.Millisecond, WAN: true, Kind: KindAck})
	c.RecordMessage(Message{Src: 3, Dst: 2, Bytes: 16, Sent: 4 * sim.Millisecond, Delivered: 7 * sim.Millisecond, WAN: true, Kind: KindAck})
	c.RecordTransport(TransportStats{Timeouts: 1, Retransmits: 1, Acks: 2, Duplicates: 1})
	return c
}

// TestCommMatrixNoDoubleCount: the communication matrix counts each logical
// payload exactly once — retransmissions, duplicates and acks are protocol
// overhead, not communication structure.
func TestCommMatrixNoDoubleCount(t *testing.T) {
	m := faultySample().CommMatrix()
	if m[0][1] != 100 {
		t.Errorf("matrix[0][1] = %d, want 100 (retransmission double-counted?)", m[0][1])
	}
	if m[2][3] != 500 {
		t.Errorf("matrix[2][3] = %d, want 500 (duplicate double-counted?)", m[2][3])
	}
	if m[1][0] != 0 || m[3][2] != 0 {
		t.Errorf("acks leaked into the matrix: %v", m)
	}
}

// TestSummarizeDropped: dropped messages are counted apart and contribute
// to no transit statistic.
func TestSummarizeDropped(t *testing.T) {
	s := faultySample().Summarize()
	if s.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", s.Dropped)
	}
	if s.Messages != 5 {
		t.Errorf("Messages = %d, want 5 delivered", s.Messages)
	}
	if s.Bytes != 100+500+500+16+16 {
		t.Errorf("Bytes = %d", s.Bytes)
	}
}

package network

import (
	"testing"
	"testing/quick"

	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

func TestGap(t *testing.T) {
	p := DefaultParams().WithWAN(2*sim.Millisecond, 0.5e6)
	lg, bg := p.Gap()
	if lg != 100 {
		t.Errorf("latency gap = %v, want 100", lg)
	}
	if bg != 100 {
		t.Errorf("bandwidth gap = %v, want 100", bg)
	}
}

func TestLoopbackOnlyOverhead(t *testing.T) {
	k := sim.NewKernel()
	p := DefaultParams()
	n := New(k, topology.DAS(), p)
	a := &arrivals{k: k}
	a.send(n, 3, 3, 1<<20, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := p.SendOverhead + p.RecvOverhead
	if at := a.at(0); at != want {
		t.Errorf("loopback at %v, want %v", at, want)
	}
	if n.Intra().Messages != 0 {
		t.Error("loopback should not touch the NIC")
	}
}

func TestIntraClusterTiming(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, topology.DAS(), flatParams())
	a := &arrivals{k: k}
	size := int64(1 << 20) // 1 MB at 50 MB/s = 20.97 ms
	a.send(n, 0, 1, size, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.TransmissionTime(size, MyrinetBandwidth) + MyrinetLatency
	if at := a.at(0); at != want {
		t.Errorf("arrival %v, want %v", at, want)
	}
}

func TestNICSerialization(t *testing.T) {
	// Two messages from the same sender serialize on its NIC; two messages
	// from different senders do not.
	run := func(src2 int) (a1, a2 sim.Time) {
		k := sim.NewKernel()
		n := New(k, topology.DAS(), flatParams())
		a := &arrivals{k: k}
		size := int64(500_000)
		a.send(n, 0, 2, size, 1)
		a.send(n, src2, 3, size, 2)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return a.at(1), a.at(2)
	}
	xmit := sim.TransmissionTime(500_000, MyrinetBandwidth)
	a1, a2 := run(0) // same sender
	if a1 != xmit+MyrinetLatency {
		t.Errorf("first arrival %v", a1)
	}
	if a2 != 2*xmit+MyrinetLatency {
		t.Errorf("serialized second arrival %v, want %v", a2, 2*xmit+MyrinetLatency)
	}
	_, a2 = run(1) // different senders: no shared resource
	if a2 != xmit+MyrinetLatency {
		t.Errorf("parallel second arrival %v, want %v", a2, xmit+MyrinetLatency)
	}
}

func TestInterClusterTiming(t *testing.T) {
	k := sim.NewKernel()
	p := flatParams().WithWAN(10*sim.Millisecond, 1e6)
	n := New(k, topology.DAS(), p)
	a := &arrivals{k: k}
	size := int64(100_000)
	a.send(n, 0, 8, size, 0) // cluster 0 -> cluster 1
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	fast := sim.TransmissionTime(size, MyrinetBandwidth) + MyrinetLatency
	slow := sim.TransmissionTime(size, 1e6) + 10*sim.Millisecond
	want := fast + slow + fast // NIC leg, WAN leg, gateway redistribution leg
	if at := a.at(0); at != want {
		t.Errorf("arrival %v, want %v", at, want)
	}
	s := n.WANStats(0, 1)
	if s.Messages != 1 || s.Bytes != size {
		t.Errorf("WAN stats = %+v", s)
	}
	if n.WANStats(1, 0).Messages != 0 {
		t.Error("reverse link should be untouched")
	}
}

func TestWANLinkContention(t *testing.T) {
	// Two messages between the same cluster pair share the WAN link; to
	// distinct destination clusters they ride distinct links.
	run := func(dst2 int) sim.Time {
		k := sim.NewKernel()
		p := flatParams().WithWAN(sim.Millisecond, 1e6)
		n := New(k, topology.DAS(), p)
		a := &arrivals{k: k}
		size := int64(250_000)
		a.send(n, 0, 8, size, 1)
		a.send(n, 1, dst2, size, 2)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return a.at(2)
	}
	sameLink := run(9)   // also cluster 1
	otherLink := run(16) // cluster 2
	if sameLink <= otherLink {
		t.Errorf("shared WAN link should delay: same=%v other=%v", sameLink, otherLink)
	}
	wanXmit := sim.TransmissionTime(250_000, 1e6)
	if sameLink-otherLink != wanXmit {
		t.Errorf("delay should be one WAN transmission (%v), got %v", wanXmit, sameLink-otherLink)
	}
}

func TestPerClusterAggregation(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, topology.DAS(), flatParams())
	a := &arrivals{k: k}
	a.send(n, 0, 8, 100, 0)
	a.send(n, 0, 16, 200, 1)
	a.send(n, 8, 0, 400, 2)
	a.send(n, 1, 2, 800, 3) // intra: not WAN
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	out0 := n.ClusterWANOut(0)
	if out0.Messages != 2 || out0.Bytes != 300 {
		t.Errorf("cluster 0 out = %+v", out0)
	}
	total := n.TotalWAN()
	if total.Messages != 3 || total.Bytes != 700 {
		t.Errorf("total WAN = %+v", total)
	}
	if n.Intra().Messages != 4 {
		t.Errorf("intra messages = %d (all four used a NIC)", n.Intra().Messages)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, topology.DAS(), flatParams())
	defer func() {
		if recover() == nil {
			t.Error("negative size should panic")
		}
	}()
	(&arrivals{k: k}).send(n, 0, 1, -1, 0)
}

// Property: FIFO per sender-destination pair — messages sent earlier from
// the same source to the same destination never arrive later messages'
// deliveries out of order, for any sizes.
func TestFIFOPerPairProperty(t *testing.T) {
	f := func(sizes []uint16, interCluster bool) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		k := sim.NewKernel()
		n := New(k, topology.DAS(), DefaultParams().WithWAN(3*sim.Millisecond, 0.5e6))
		dst := 1
		if interCluster {
			dst = 9
		}
		a := &arrivals{k: k}
		for i, s := range sizes {
			a.send(n, 0, dst, int64(s)+1, uint64(i))
		}
		if err := k.Run(); err != nil {
			return false
		}
		order := a.tokens()
		for i, v := range order {
			if v != uint64(i) {
				return false
			}
		}
		return len(order) == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: arrival time is monotone non-decreasing in message size and in
// WAN latency.
func TestArrivalMonotoneProperty(t *testing.T) {
	arrival := func(size int64, lat sim.Time) sim.Time {
		k := sim.NewKernel()
		n := New(k, topology.DAS(), DefaultParams().WithWAN(lat, 1e6))
		a := &arrivals{k: k}
		a.send(n, 0, 8, size, 0)
		if err := k.Run(); err != nil {
			panic(err)
		}
		return a.at(0)
	}
	f := func(a, b uint16, l1, l2 uint8) bool {
		s1, s2 := int64(a), int64(b)
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		t1, t2 := sim.Time(l1)*sim.Millisecond, sim.Time(l2)*sim.Millisecond
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return arrival(s1, t1) <= arrival(s2, t1) && arrival(s1, t1) <= arrival(s1, t2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// discard is a delivery handler that does nothing.
type discard struct{}

func (discard) HandleEvent(uint64) {}

func BenchmarkSendIntra(b *testing.B) {
	k := sim.NewKernel()
	n := New(k, topology.DAS(), DefaultParams())
	var h discard
	for i := 0; i < b.N; i++ {
		n.SendHandle(i%8, (i+1)%8, 1024, ClassData, h, 0)
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

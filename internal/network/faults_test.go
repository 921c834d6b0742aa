package network

import (
	"testing"

	"twolayer/internal/faults"
	"twolayer/internal/sim"
)

// sendN offers n WAN messages 0->8 and returns the observer events and the
// count of fired deliveries.
func sendN(t *testing.T, plan *faults.Plan, n int, bytes int64) (events []MessageEvent, delivered int, net *Network) {
	t.Helper()
	k, nw := dasNet(t, slowWANParams())
	nw.SetFaults(plan)
	nw.SetObserver(func(ev MessageEvent) { events = append(events, ev) })
	a := &arrivals{k: k}
	for i := 0; i < n; i++ {
		a.send(nw, 0, 8, bytes, uint64(i))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return events, len(a.log), nw
}

func TestFaultDropSuppressesDelivery(t *testing.T) {
	plan := faults.NewPlan(faults.Params{DropRate: 0.5, Seed: 3})
	const n = 200
	events, delivered, nw := sendN(t, plan, n, 100)
	st := nw.FaultStats()
	if st.Dropped == 0 || st.Dropped == n {
		t.Fatalf("implausible drop count %d of %d", st.Dropped, n)
	}
	if got := int64(delivered); got != n-st.Dropped {
		t.Errorf("%d deliveries, want %d", got, n-st.Dropped)
	}
	var droppedEvents int64
	for _, ev := range events {
		if ev.Dropped {
			droppedEvents++
			if !ev.WAN {
				t.Error("dropped event not flagged WAN")
			}
		}
	}
	if droppedEvents != st.Dropped {
		t.Errorf("%d dropped events, stats say %d", droppedEvents, st.Dropped)
	}
	// In-flight losses still occupy the link: WAN stats count every offer.
	if got := nw.TotalWAN().Messages; got != n {
		t.Errorf("WAN link carried %d messages, want %d (losses occur after the link)", got, n)
	}
}

func TestFaultDuplicateDeliversTwice(t *testing.T) {
	plan := faults.NewPlan(faults.Params{DupRate: 0.5, Seed: 4})
	const n = 100
	events, delivered, nw := sendN(t, plan, n, 100)
	st := nw.FaultStats()
	if st.Duplicated == 0 {
		t.Fatal("no duplicates at 50% rate")
	}
	if got := int64(delivered); got != n+st.Duplicated {
		t.Errorf("%d deliveries, want %d", got, n+st.Duplicated)
	}
	var dupEvents int64
	for _, ev := range events {
		if ev.Duplicate {
			dupEvents++
		}
	}
	if dupEvents != st.Duplicated {
		t.Errorf("%d duplicate events, stats say %d", dupEvents, st.Duplicated)
	}
	// The duplicate copy occupies the wide-area link a second time.
	if got := nw.TotalWAN().Messages; got != n+st.Duplicated {
		t.Errorf("WAN link carried %d messages, want %d", got, n+st.Duplicated)
	}
}

func TestFaultJitterReorders(t *testing.T) {
	// Jitter larger than the per-message spacing must eventually deliver a
	// later message before an earlier one.
	plan := faults.NewPlan(faults.Params{ReorderJitter: 50 * sim.Millisecond, Seed: 5})
	k, nw := dasNet(t, slowWANParams())
	nw.SetFaults(plan)
	a := &arrivals{k: k}
	for i := 0; i < 20; i++ {
		a.send(nw, 0, 8, 10, uint64(i))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	order := a.tokens()
	if len(order) != 20 {
		t.Fatalf("%d deliveries", len(order))
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Error("50ms jitter never reordered 20 messages")
	}
}

func TestFaultOutageDropsWithoutChargingLink(t *testing.T) {
	// Link down 50% of the time with a short period: roughly half the
	// messages (spread over several periods) vanish at the gateway.
	plan := faults.NewPlan(faults.Params{
		OutagePeriod: 10 * sim.Millisecond, OutageDuration: 4 * sim.Millisecond, Seed: 6,
	})
	k, nw := dasNet(t, slowWANParams())
	nw.SetFaults(plan)
	a := &arrivals{k: k}
	const n = 50
	for i := 0; i < n; i++ {
		// Spread offers over virtual time so several outage windows pass.
		k.Schedule(sim.Time(i)*2*sim.Millisecond, func() {
			a.send(nw, 0, 8, 10, uint64(i))
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	delivered := len(a.log)
	st := nw.FaultStats()
	if st.OutageDropped == 0 {
		t.Fatal("no outage drops with a 40% duty cycle")
	}
	if delivered != n-int(st.OutageDropped) {
		t.Errorf("%d delivered, want %d", delivered, n-int(st.OutageDropped))
	}
	// Outage drops never occupy the link.
	if got := nw.TotalWAN().Messages; got != int64(n)-st.OutageDropped {
		t.Errorf("WAN link carried %d messages, want %d", got, int64(n)-st.OutageDropped)
	}
}

func TestFaultsDeterministic(t *testing.T) {
	run := func() ([]MessageEvent, FaultStats) {
		plan := faults.NewPlan(faults.Params{
			DropRate: 0.2, DupRate: 0.1, ReorderJitter: 5 * sim.Millisecond, Seed: 11,
		})
		events, _, nw := sendN(t, plan, 100, 64)
		return events, nw.FaultStats()
	}
	e1, s1 := run()
	e2, s2 := run()
	if s1 != s2 {
		t.Fatalf("fault stats diverged: %+v vs %+v", s1, s2)
	}
	if len(e1) != len(e2) {
		t.Fatalf("event counts diverged: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, e1[i], e2[i])
		}
	}
}

func TestFaultsNeverTouchIntraCluster(t *testing.T) {
	plan := faults.NewPlan(faults.Params{DropRate: 0.99, Seed: 1})
	k, nw := dasNet(t, flatParams())
	nw.SetFaults(plan)
	a := &arrivals{k: k}
	for i := 0; i < 100; i++ {
		a.send(nw, 0, 1, 10, uint64(i))     // same cluster
		a.send(nw, 2, 2, 10, uint64(100+i)) // loopback
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	delivered := len(a.log)
	if delivered != 200 {
		t.Errorf("intra-cluster traffic lost messages: %d of 200 delivered", delivered)
	}
	if st := nw.FaultStats(); st != (FaultStats{}) {
		t.Errorf("fault stats on intra traffic: %+v", st)
	}
}

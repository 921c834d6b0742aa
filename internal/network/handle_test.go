package network

import (
	"fmt"
	"hash/fnv"
	"testing"

	"twolayer/internal/faults"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/wantopo"
)

// sendScript is a deterministic mixed workload: loopback, intra-cluster and
// wide-area messages of varying sizes from several ranks.
type scriptedSend struct {
	src, dst int
	size     int64
}

func sendScript() []scriptedSend {
	var script []scriptedSend
	for i := 0; i < 40; i++ {
		script = append(script,
			scriptedSend{src: i % 4, dst: i % 4, size: int64(64 + i)},        // loopback
			scriptedSend{src: i % 4, dst: (i + 1) % 4, size: int64(256 * i)}, // intra-cluster (DAS: 0-7 cluster 0)
			scriptedSend{src: i % 4, dst: 8 + i%4, size: int64(1024 + 37*i)}, // WAN 0->1
			scriptedSend{src: 16 + i%4, dst: 24 + i%4, size: int64(128 * i)}, // WAN 2->3
		)
	}
	return script
}

// TestScriptedSendsPinned pins every arrival of the scripted traffic — its
// token, virtual time and firing order — together with the observer stream
// and the wide-area link statistics, clean and under drops, duplicates and
// jitter. The digest covers the arrivals and the observer stream; any change
// to it is a change to the wire model or to event order.
func TestScriptedSendsPinned(t *testing.T) {
	cases := []struct {
		name      string
		p         Params
		plan      *faults.Plan
		delivered int
		wan       LinkStats
		digest    uint64
	}{
		{"clean", slowWANParams(), nil, 160, LinkStats{80, 169660, 169660000}, 0xe530d9bcdc31833e},
		{"default", DefaultParams(), nil, 160, LinkStats{80, 169660, 28276640}, 0x67d660f10df03c90},
		{"faulted", slowWANParams(), faults.NewPlan(faults.Params{
			Seed: 11, DropRate: 0.1, DupRate: 0.1, ReorderJitter: 2 * sim.Millisecond,
		}), 164, LinkStats{92, 194066, 194066000}, 0x68f429bf1e4d449d},
	}
	for _, tc := range cases {
		k := sim.NewKernel()
		n := New(k, topology.DAS(), tc.p)
		n.SetFaults(tc.plan)
		h := fnv.New64a()
		n.SetObserver(func(ev MessageEvent) {
			fmt.Fprintf(h, "%d>%d %d %d %d %t %d %t %t\n", ev.Src, ev.Dst, ev.Bytes,
				int64(ev.Sent), int64(ev.Delivered), ev.WAN, ev.Class, ev.Duplicate, ev.Dropped)
		})
		a := &arrivals{k: k}
		k.Spawn("src", func(proc *sim.Proc) {
			for i, s := range sendScript() {
				a.send(n, s.src, s.dst, s.size, uint64(i))
				proc.Sleep(3 * sim.Microsecond)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for _, x := range a.log {
			fmt.Fprintf(h, "%d@%d\n", x.token, int64(x.at))
		}
		if len(a.log) != tc.delivered {
			t.Errorf("%s: %d deliveries, want %d", tc.name, len(a.log), tc.delivered)
		}
		if w := n.TotalWAN(); w != tc.wan {
			t.Errorf("%s: WAN stats %+v, want %+v", tc.name, w, tc.wan)
		}
		if d := h.Sum64(); d != tc.digest {
			t.Errorf("%s: arrival digest %#x, want %#x", tc.name, d, tc.digest)
		}
	}
}

// TestSendHandleCountsDeliveries pins SendHandle's return value to what
// actually fires: per token, the count it returned equals the handler's
// firings — 0 for drops and outages, 2 for duplicates — on the direct
// clique and on a multi-hop ring.
func TestSendHandleCountsDeliveries(t *testing.T) {
	ring, err := wantopo.Parse("ring", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		wan  *wantopo.WAN
	}{{"clique", nil}, {"ring", ring}} {
		k := sim.NewKernel()
		n := NewWithWAN(k, topology.DAS(), slowWANParams(), tc.wan)
		n.SetFaults(faults.NewPlan(faults.Params{
			Seed: 5, DropRate: 0.2, DupRate: 0.2, ReorderJitter: sim.Millisecond,
			OutagePeriod: 20 * sim.Millisecond, OutageDuration: 3 * sim.Millisecond,
		}))
		a := &arrivals{k: k}
		want := map[uint64]int{}
		returned := map[int]int{}
		for i := 0; i < 200; i++ {
			k.Schedule(sim.Time(i)*sim.Millisecond/2, func() {
				c := a.send(n, i%4, 8*(1+i%3)+i%8, int64(100+i), uint64(i))
				want[uint64(i)] = c
				returned[c]++
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		got := map[uint64]int{}
		for _, x := range a.log {
			got[x.token]++
		}
		for tok, c := range want {
			if got[tok] != c {
				t.Errorf("%s: message %d: SendHandle returned %d, handler fired %d times", tc.name, tok, c, got[tok])
			}
		}
		if returned[0] == 0 || returned[2] == 0 {
			t.Errorf("%s: plan produced no drops or no duplicates: %v", tc.name, returned)
		}
	}
}

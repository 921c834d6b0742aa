package network

import (
	"strings"
	"testing"

	"twolayer/internal/regime"
	"twolayer/internal/sim"
)

func TestRTTFactorSurcharge(t *testing.T) {
	run := func(factor float64) sim.Time {
		p := slowWANParams()
		p.WANMessageRTTFactor = factor
		k, n := dasNet(t, p)
		a := &arrivals{k: k}
		a.send(n, 0, 8, 100, 0)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return a.at(0)
	}
	plain := run(0)
	tcp := run(0.5)
	// 0.5 * RTT = 10 ms extra per message.
	if got := tcp - plain; got != 10*sim.Millisecond {
		t.Errorf("surcharge = %v, want 10ms", got)
	}
}

// TestVariabilityDeterministicAndBounded: a vary regime reaches the wire.
// Equal seeds move deliveries identically, another seed moves them
// differently, and no message arrives earlier than on the calm link.
func TestVariabilityDeterministicAndBounded(t *testing.T) {
	run := func(spec string, seed int64) []sim.Time {
		k, n := dasNet(t, slowWANParams())
		if spec != "" {
			pl, err := regime.NewPlan(regime.Params{Spec: spec, Seed: seed}, nil, n.Topology().Clusters())
			if err != nil {
				t.Fatal(err)
			}
			n.SetRegime(pl)
		}
		a := &arrivals{k: k}
		for i := 0; i < 10; i++ {
			a.send(n, 0, 8, 10_000, 0)
			a.send(n, 1, 17, 10_000, 1)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		var times []sim.Time
		for _, x := range a.log {
			times = append(times, x.at)
		}
		return times
	}
	calm := run("", 0)
	a := run("vary:5ms:0.5:20ms", 1)
	b := run("vary:5ms:0.5:20ms", 1)
	c := run("vary:5ms:0.5:20ms", 2)
	different, slower := false, false
	for i := range calm {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at delivery %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < calm[i] {
			t.Errorf("delivery %d at %v, earlier than the calm link's %v", i, a[i], calm[i])
		}
		different = different || a[i] != c[i]
		slower = slower || a[i] > calm[i]
	}
	if !different {
		t.Error("different seeds should fluctuate differently")
	}
	if !slower {
		t.Error("vary regime left every delivery at its calm time")
	}
}

// TestVariabilityValidation: out-of-range vary parameters are rejected when
// the plan is built, so no plan exists that could reach the network.
func TestVariabilityValidation(t *testing.T) {
	clusters := 4
	for _, p := range []regime.Params{
		{Spec: "vary:5ms:0.5:20ms", Seed: 1},
		{Spec: "vary"},
	} {
		if _, err := regime.NewPlan(p, nil, clusters); err != nil {
			t.Fatalf("valid params %+v rejected: %v", p, err)
		}
	}
	cases := []struct {
		name string
		p    regime.Params
		want string
	}{
		{"factor of one", regime.Params{Spec: "vary:5ms:1:20ms", Seed: 1}, "bandwidth loss"},
		{"factor above one", regime.Params{Spec: "vary:5ms:1.5:20ms", Seed: 1}, "bandwidth loss"},
		{"negative factor", regime.Params{Spec: "vary:5ms:-0.1:20ms", Seed: 1}, "bandwidth loss"},
		{"negative jitter", regime.Params{Spec: "vary:-1ns:0.5:20ms", Seed: 1}, "jitter"},
		{"negative period", regime.Params{Spec: "vary:5ms:0.5:-1ns", Seed: 1}, "period"},
		{"negative seed", regime.Params{Spec: "vary:5ms:0.5:20ms", Seed: -1}, "seed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := regime.NewPlan(tc.p, nil, clusters)
			if err == nil {
				t.Fatalf("params %+v accepted", tc.p)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if pl != nil {
				t.Error("rejected params still produced a plan")
			}
		})
	}
}

func TestObserverSeesAllMessages(t *testing.T) {
	k, n := dasNet(t, DefaultParams())
	var events []MessageEvent
	n.SetObserver(func(ev MessageEvent) { events = append(events, ev) })
	a := &arrivals{k: k}
	a.send(n, 0, 0, 10, 0) // loopback
	a.send(n, 0, 1, 20, 1) // intra
	a.send(n, 0, 8, 30, 2) // WAN
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("%d events", len(events))
	}
	if events[0].WAN || events[1].WAN || !events[2].WAN {
		t.Errorf("WAN flags wrong: %+v", events)
	}
	for _, ev := range events {
		if ev.Delivered <= ev.Sent {
			t.Errorf("non-positive transit: %+v", ev)
		}
		if ev.Class != ClassData || ev.Duplicate || ev.Dropped {
			t.Errorf("plain send mislabelled: %+v", ev)
		}
	}
}

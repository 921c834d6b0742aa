package network

import (
	"strings"
	"testing"

	"twolayer/internal/sim"
)

func TestPairSpeedOverride(t *testing.T) {
	arrive := func(configure func(*Network)) sim.Time {
		k, n := dasNet(t, slowWANParams())
		if configure != nil {
			configure(n)
		}
		var at sim.Time
		n.SendClass(0, 8, 1000, ClassData, func() { at = k.Now() })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	base := arrive(nil)
	fast := arrive(func(n *Network) {
		n.SetPairSpeeds([]PairSpeed{{Src: 0, Dst: 1, Latency: sim.Millisecond, Bandwidth: 10e6}})
	})
	if fast >= base {
		t.Errorf("override should be faster: %v vs %v", fast, base)
	}
	// The reverse direction and other pairs keep the slow defaults.
	other := arrive(func(n *Network) {
		n.SetPairSpeeds([]PairSpeed{{Src: 1, Dst: 0, Latency: sim.Millisecond, Bandwidth: 10e6}})
	})
	if other != base {
		t.Errorf("unrelated override changed timing: %v vs %v", other, base)
	}
}

func TestRTTFactorSurcharge(t *testing.T) {
	run := func(factor float64) sim.Time {
		p := slowWANParams()
		p.WANMessageRTTFactor = factor
		k, n := dasNet(t, p)
		var at sim.Time
		n.SendClass(0, 8, 100, ClassData, func() { at = k.Now() })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	plain := run(0)
	tcp := run(0.5)
	// 0.5 * RTT = 10 ms extra per message.
	if got := tcp - plain; got != 10*sim.Millisecond {
		t.Errorf("surcharge = %v, want 10ms", got)
	}
}

func TestVariabilityDeterministicAndBounded(t *testing.T) {
	run := func(seed int64) []sim.Time {
		k, n := dasNet(t, slowWANParams())
		if err := n.SetVariability(Variability{
			LatencyJitter:   5 * sim.Millisecond,
			BandwidthFactor: 0.5,
			Period:          20 * sim.Millisecond,
			Seed:            seed,
		}); err != nil {
			t.Fatal(err)
		}
		var times []sim.Time
		for i := 0; i < 10; i++ {
			n.SendClass(0, 8, 10_000, ClassData, func() { times = append(times, k.Now()) })
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a := run(1)
	b := run(1)
	c := run(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at message %d: %v vs %v", i, a[i], b[i])
		}
	}
	different := false
	for i := range a {
		if a[i] != c[i] {
			different = true
		}
	}
	if !different {
		t.Error("different seeds should fluctuate differently")
	}
	// Bounds: every delivery at least as late as the un-jittered ideal and
	// no later than worst case (half bandwidth, +5ms latency each, serialized).
	k, n := dasNet(t, slowWANParams())
	var ideal sim.Time
	n.SendClass(0, 8, 10_000, ClassData, func() { ideal = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if a[0] < ideal {
		t.Errorf("jittered delivery %v earlier than ideal %v", a[0], ideal)
	}
}

// TestVariabilityValidation rejects out-of-range fluctuation parameters
// before they can corrupt a run, and SetVariability refuses them without
// touching the network.
func TestVariabilityValidation(t *testing.T) {
	valid := Variability{
		LatencyJitter:   5 * sim.Millisecond,
		BandwidthFactor: 0.5,
		Period:          20 * sim.Millisecond,
		Seed:            1,
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	if err := (Variability{}).Validate(); err != nil {
		t.Fatalf("zero value rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Variability)
		want string
	}{
		{"factor of one", func(v *Variability) { v.BandwidthFactor = 1 }, "BandwidthFactor"},
		{"factor above one", func(v *Variability) { v.BandwidthFactor = 1.5 }, "BandwidthFactor"},
		{"negative factor", func(v *Variability) { v.BandwidthFactor = -0.1 }, "BandwidthFactor"},
		{"negative jitter", func(v *Variability) { v.LatencyJitter = -1 }, "LatencyJitter"},
		{"negative period", func(v *Variability) { v.Period = -1 }, "Period"},
		{"negative seed", func(v *Variability) { v.Seed = -1 }, "seed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := valid
			tc.mut(&v)
			err := v.Validate()
			if err == nil {
				t.Fatalf("params %+v accepted", v)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			_, n := dasNet(t, slowWANParams())
			if n.SetVariability(v) == nil {
				t.Error("SetVariability accepted invalid params")
			}
			if n.wanStates != nil || n.variability.enabled() {
				t.Error("rejected params still mutated the network")
			}
		})
	}
}

func TestObserverSeesAllMessages(t *testing.T) {
	k, n := dasNet(t, DefaultParams())
	var events []MessageEvent
	n.SetObserver(func(ev MessageEvent) { events = append(events, ev) })
	n.SendClass(0, 0, 10, ClassData, func() {}) // loopback
	n.SendClass(0, 1, 20, ClassData, func() {}) // intra
	n.SendClass(0, 8, 30, ClassData, func() {}) // WAN
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

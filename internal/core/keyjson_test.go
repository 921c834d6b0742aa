package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"twolayer/internal/apps"
	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
)

// The run cache's addresses are the sha256 of json.Marshal(RunKey), and
// appendKeyJSON writes those bytes by hand. json.Marshal stays the oracle.

// checkKeyJSON fails t unless appendKeyJSON writes json.Marshal's bytes
// for k, or, for a key json.Marshal refuses, panics with its error the way
// newDiskKey always has.
func checkKeyJSON(t testing.TB, k RunKey) {
	t.Helper()
	want, err := json.Marshal(k)
	var got []byte
	var panicked any
	func() {
		defer func() { panicked = recover() }()
		got = appendKeyJSON([]byte("prefix"), k)
	}()
	switch {
	case err != nil:
		if msg := "core: run key not serializable: " + err.Error(); panicked != msg {
			t.Fatalf("key %#v: appendKeyJSON panicked with %v, want %q", k, panicked, msg)
		}
	case panicked != nil:
		t.Fatalf("key %#v: appendKeyJSON panicked: %v", k, panicked)
	case !bytes.Equal(got, append([]byte("prefix"), want...)):
		t.Fatalf("key %#v:\\n got %s\\nwant prefix%s", k, got, want)
	}
}

// studyKeys runs Figure 3, the chaos grid, the regime study and the
// topology study at Tiny scale on one cache and returns every key they
// looked up.
func studyKeys(t *testing.T) []RunKey {
	t.Helper()
	c := NewRunCache()
	if _, err := Figure3(apps.Tiny, Figure3Options{Cache: c}); err != nil {
		t.Fatal(err)
	}
	if _, err := ChaosStudy(ChaosConfig{Cache: c}); err != nil {
		t.Fatal(err)
	}
	if _, err := RegimeStudy(RegimeStudyConfig{Cache: c}); err != nil {
		t.Fatal(err)
	}
	if _, err := TopologyStudy(TopologyStudyConfig{Cache: c}); err != nil {
		t.Fatal(err)
	}
	var keys []RunKey
	for _, s := range c.runs.slots {
		for ; s != nil; s = s.next {
			keys = append(keys, s.key)
		}
	}
	return keys
}

// randomKey draws a key from the ranges json.Marshal treats differently:
// strings with HTML, quote, control and non-ASCII bytes (invalid UTF-8
// included), floats of both signs from 1e-25 to 1e25, the 'e' cut-offs,
// -0, and each omitzero field both set and zero.
func randomKey(r *rand.Rand) RunKey {
	tokens := []string{"a", "Z", "0", "9", " ", ":", "+", ".", "-", "x", "~",
		`"`, `\`, "<", ">", "&", "\x00", "\x1f", "\x7f", "\t", "\n", "é", "\u2028", "\xff", "\xc3"}
	str := func() string {
		var b []byte
		for n := r.Intn(10); n > 0; n-- {
			b = append(b, tokens[r.Intn(len(tokens))]...)
		}
		return string(b)
	}
	edges := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21,
		math.Nextafter(1e21, 0), 5e-324, math.MaxFloat64, 1e-7, 1e-10, 123456789e15}
	flt := func() float64 {
		var f float64
		switch r.Intn(4) {
		case 0:
			f = edges[r.Intn(len(edges))]
		case 1:
			f = float64(r.Intn(100000))
		default:
			f = math.Pow(10, r.Float64()*50-25)
		}
		if r.Intn(4) == 0 {
			f = -f
		}
		return f
	}
	i64 := func() int64 {
		switch r.Intn(3) {
		case 0:
			return int64(r.Intn(100))
		case 1:
			return -r.Int63()
		}
		return r.Int63()
	}
	tm := func() sim.Time { return sim.Time(i64()) }
	k := RunKey{
		App: str(), Scale: apps.Scale(r.Intn(4)), Optimized: r.Intn(2) == 0, Topo: str(),
		Params: network.Params{
			IntraLatency: tm(), IntraBandwidth: flt(), WANLatency: tm(), WANBandwidth: flt(),
			SendOverhead: tm(), RecvOverhead: tm(), WANPerMessage: tm(), WANMessageRTTFactor: flt(),
		},
		Seed: i64(),
	}
	if r.Intn(2) == 0 {
		k.WANTopo = str()
	}
	switch r.Intn(3) {
	case 0:
		k.Faults = faults.Params{DropRate: flt(), DupRate: flt(), ReorderJitter: tm(),
			OutagePeriod: tm(), OutageDuration: tm(), Seed: i64()}
	case 1: // zero but for -0, which omitzero treats as zero
		k.Faults = faults.Params{DropRate: math.Copysign(0, -1)}
	}
	if r.Intn(2) == 0 {
		k.Regime = regime.Params{Spec: str(), Seed: i64()}
	}
	k.Adaptive = r.Intn(2) == 0
	return k
}

// TestRunKeyJSONMatchesMarshal: the hand encoder writes json.Marshal's
// bytes for every key the studies look up at Tiny scale (Figure 3, the
// chaos grid with faults, the regime study with regimes and Adaptive, the
// topology study with wide-area specs) and for 200,000 seeded random
// keys; a non-finite float panics as it always did; and RunKey's field
// list, nested structs included, is pinned, so a new field fails here
// until the encoder writes it.
func TestRunKeyJSONMatchesMarshal(t *testing.T) {
	keys := studyKeys(t)
	var faulted, regimed, adaptive, routed int
	for _, k := range keys {
		checkKeyJSON(t, k)
		if k.Faults != (faults.Params{}) {
			faulted++
		}
		if k.Regime != (regime.Params{}) {
			regimed++
		}
		if k.Adaptive {
			adaptive++
		}
		if k.WANTopo != "" {
			routed++
		}
	}
	if faulted == 0 || regimed == 0 || adaptive == 0 || routed == 0 {
		t.Errorf("study keys miss an optional field: %d faulted, %d with regimes, %d adaptive, %d routed",
			faulted, regimed, adaptive, routed)
	}

	r := rand.New(rand.NewSource(1))
	for range 200000 {
		checkKeyJSON(t, randomKey(r))
	}

	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		k := keys[0]
		k.Params.WANBandwidth = f
		checkKeyJSON(t, k)
		k = keys[0]
		k.Faults.DupRate = f
		checkKeyJSON(t, k)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newDiskKey did not panic on a %v bandwidth", f)
				}
			}()
			k := keys[0]
			k.Params.IntraBandwidth = f
			newDiskKey(k)
		}()
	}

	fields := func(v any) []string {
		var out []string
		typ := reflect.TypeOf(v)
		for i := range typ.NumField() {
			f := typ.Field(i)
			out = append(out, fmt.Sprintf("%s %v %s", f.Name, f.Type, f.Tag))
		}
		return out
	}
	for _, c := range []struct {
		v    any
		want []string
	}{
		{RunKey{}, []string{"App string ", "Scale apps.Scale ", "Optimized bool ", "Topo string ",
			"Params network.Params ", "Seed int64 ", `WANTopo string json:",omitzero"`,
			`Faults faults.Params json:",omitzero"`, `Regime regime.Params json:",omitzero"`,
			`Adaptive bool json:",omitzero"`}},
		{network.Params{}, []string{"IntraLatency sim.Time ", "IntraBandwidth float64 ",
			"WANLatency sim.Time ", "WANBandwidth float64 ", "SendOverhead sim.Time ",
			"RecvOverhead sim.Time ", "WANPerMessage sim.Time ", "WANMessageRTTFactor float64 "}},
		{faults.Params{}, []string{"DropRate float64 ", "DupRate float64 ", "ReorderJitter sim.Time ",
			"OutagePeriod sim.Time ", "OutageDuration sim.Time ", "Seed int64 "}},
		{regime.Params{}, []string{"Spec string ", "Seed int64 "}},
	} {
		if got := fields(c.v); !slices.Equal(got, c.want) {
			t.Errorf("%T fields changed; teach appendKeyJSON the new list, then pin it here:\n got %q\nwant %q",
				c.v, got, c.want)
		}
	}
}

// FuzzRunKeyJSON checks appendKeyJSON against json.Marshal on arbitrary
// strings, floats, integers and flags.
func FuzzRunKeyJSON(f *testing.F) {
	f.Add("TSP", "4x8", "", "", 0.95e6, 50e6, 0.0, 0.0, int64(3300000), int64(42), int64(0), 0, false, false)
	f.Add("Water", "4x8", "torus2", "diurnal:400ms:8+churn:1s:250ms", 1e-7, 1e21, 0.02, -0.0, int64(-1), int64(-7), int64(7), 2, true, true)
	f.Add("<a&b>", "\x00\xff\u2028", "é", `"\`, math.Copysign(0, -1), 5e-324, 1e-6, 123456789e15, int64(1<<62), int64(math.MinInt64), int64(math.MaxInt64), -1, true, false)
	f.Fuzz(func(t *testing.T, app, topo, wan, spec string, bw, intraBW, drop, rtt float64, lat, seed, fseed int64, scale int, opt, adaptive bool) {
		checkKeyJSON(t, RunKey{
			App: app, Scale: apps.Scale(scale), Optimized: opt, Topo: topo,
			Params: network.Params{IntraLatency: sim.Time(lat), IntraBandwidth: intraBW, WANLatency: sim.Time(lat / 3),
				WANBandwidth: bw, SendOverhead: sim.Time(seed), WANMessageRTTFactor: rtt},
			Seed: seed, WANTopo: wan,
			Faults:   faults.Params{DropRate: drop, DupRate: rtt, OutageDuration: sim.Time(fseed), Seed: fseed},
			Regime:   regime.Params{Spec: spec, Seed: fseed},
			Adaptive: adaptive,
		})
	})
}

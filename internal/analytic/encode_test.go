package analytic

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"twolayer/internal/network"
	"twolayer/internal/sim"
)

// randomGraph builds a pseudo-random graph honouring every Validate
// invariant: sends own message records in record order, receives consume
// already-sent messages addressed to their rank exactly once, and each
// recorded pattern is satisfied by the consumed message. With wildcards
// enabled, patterns relax to any-sender and any-tag at random, which is
// what drives the matched-replay evaluator through its dynamic paths.
func randomGraph(r *rand.Rand, wildcards bool) *Graph {
	procs := 1 + r.Intn(8)
	clusters := 1 + r.Intn(procs)
	g := &Graph{
		Procs:     procs,
		Clusters:  clusters,
		ClusterOf: make([]int32, procs),
		Ref: network.Params{
			IntraLatency:        sim.Time(r.Intn(10_000)),
			IntraBandwidth:      1e6 + r.Float64()*1e8,
			WANLatency:          sim.Time(r.Intn(100_000_000)),
			WANBandwidth:        1e4 + r.Float64()*1e7,
			SendOverhead:        sim.Time(r.Intn(50_000)),
			RecvOverhead:        sim.Time(r.Intn(50_000)),
			WANPerMessage:       sim.Time(r.Intn(1_000_000)),
			WANMessageRTTFactor: r.Float64(),
		},
		RefElapsed: sim.Time(r.Int63n(1_000_000_000)),
		// Non-nil empties: the decoders materialize every slice, so a nil
		// here would break reflect.DeepEqual on graphs with no messages.
		Ops: []uint8{}, Rank: []int32{}, Arg: []int64{},
		MsgSrc: []int32{}, MsgDst: []int32{}, MsgBytes: []int64{}, MsgTag: []int64{},
		RecvFrom: []int32{}, RecvTag: []int64{}, RecvPoll: []uint8{},
	}
	for i := range g.ClusterOf {
		g.ClusterOf[i] = int32(r.Intn(clusters))
	}
	unconsumed := make([][]int32, procs) // sent, not yet received, per destination
	for target := r.Intn(400); len(g.Ops) < target; {
		rank := int32(r.Intn(procs))
		switch r.Intn(3) {
		case 0:
			g.Ops = append(g.Ops, OpSpan)
			g.Rank = append(g.Rank, rank)
			g.Arg = append(g.Arg, r.Int63n(1_000_000))
		case 1:
			m := int32(len(g.MsgSrc))
			dst := int32(r.Intn(procs))
			g.Ops = append(g.Ops, OpSend)
			g.Rank = append(g.Rank, rank)
			g.Arg = append(g.Arg, int64(m))
			g.MsgSrc = append(g.MsgSrc, rank)
			g.MsgDst = append(g.MsgDst, dst)
			g.MsgBytes = append(g.MsgBytes, r.Int63n(1<<20))
			g.MsgTag = append(g.MsgTag, int64(r.Intn(4)))
			unconsumed[dst] = append(unconsumed[dst], m)
		default:
			q := unconsumed[rank]
			if len(q) == 0 {
				continue
			}
			i := r.Intn(len(q))
			m := q[i]
			q[i] = q[len(q)-1]
			unconsumed[rank] = q[:len(q)-1]
			from, tag := g.MsgSrc[m], g.MsgTag[m]
			if wildcards && r.Intn(2) == 0 {
				from = -1
			}
			if wildcards && r.Intn(4) == 0 {
				tag = anyTag
			}
			var poll uint8
			if r.Intn(5) == 0 {
				poll = 1
			}
			g.Ops = append(g.Ops, OpRecv)
			g.Rank = append(g.Rank, rank)
			g.Arg = append(g.Arg, int64(m))
			g.RecvFrom = append(g.RecvFrom, from)
			g.RecvTag = append(g.RecvTag, tag)
			g.RecvPoll = append(g.RecvPoll, poll)
		}
	}
	return g
}

// TestBinaryRoundTrip pins the binary codec: decode(encode(g)) must
// reproduce the graph exactly for arbitrary valid graphs.
func TestBinaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		g := randomGraph(r, true)
		if err := g.Validate(); err != nil {
			t.Fatalf("graph %d: generator produced invalid graph: %v", i, err)
		}
		var buf bytes.Buffer
		if err := g.EncodeBinary(&buf); err != nil {
			t.Fatalf("graph %d: encode: %v", i, err)
		}
		got, err := DecodeBinary(&buf)
		if err != nil {
			t.Fatalf("graph %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Fatalf("graph %d: binary round trip diverged\n got %+v\nwant %+v", i, got, g)
		}
	}
}

// TestJSONRoundTrip pins the JSON encoding (the disk cache's outer
// format) against the in-memory graph the same way.
func TestJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		g := randomGraph(r, true)
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("graph %d: marshal: %v", i, err)
		}
		got := &Graph{}
		if err := json.Unmarshal(data, got); err != nil {
			t.Fatalf("graph %d: unmarshal: %v", i, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("graph %d: decoded graph invalid: %v", i, err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Fatalf("graph %d: JSON round trip diverged\n got %+v\nwant %+v", i, got, g)
		}
	}
}

// TestDecodeBinaryTruncated feeds every strict prefix of a valid encoding
// to the decoder: each must fail cleanly with an error, never panic or
// yield a graph.
func TestDecodeBinaryTruncated(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), true)
	var buf bytes.Buffer
	if err := g.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for n := 0; n < len(data); n++ {
		if _, err := DecodeBinary(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("decoding %d of %d bytes succeeded", n, len(data))
		}
	}
}

// TestDecodeBinaryRejectsTrailingBytes: a valid encoding followed by
// anything is not a graph, so a cache entry can hold no bytes its decode
// ignores.
func TestDecodeBinaryRejectsTrailingBytes(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), true)
	var buf bytes.Buffer
	if err := g.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinary(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{"\x00", "x", "TLAG"} {
		data := append(bytes.Clone(buf.Bytes()), tail...)
		if _, err := DecodeBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("decoding with %q appended succeeded", tail)
		}
	}
}

func TestDecodeBinaryRejectsHeader(t *testing.T) {
	if _, err := DecodeBinary(strings.NewReader("NOPE")); err == nil {
		t.Error("bad magic accepted")
	}
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	buf.WriteByte(binaryVersion + 1)
	if _, err := DecodeBinary(&buf); err == nil {
		t.Error("unknown version accepted")
	}
}

// craftedHeader encodes a graph whose counts are all zero except the named
// one, which declares n elements that never follow. With no name it is a
// complete, valid empty graph, which pins the layout.
func craftedHeader(big string, n uint64) []byte {
	count := func(name string) uint64 {
		if name == big {
			return n
		}
		return 0
	}
	b := []byte(binaryMagic)
	b = binary.AppendUvarint(b, binaryVersion)
	if big == "procs" {
		return binary.AppendUvarint(binary.AppendUvarint(b, count("procs")), 1)
	}
	b = binary.AppendUvarint(b, 1) // procs
	b = binary.AppendUvarint(b, 1) // clusters
	b = binary.AppendVarint(b, 0)  // ClusterOf[0]
	// Ref in field order (the bandwidths and the RTT factor are floats),
	// then RefElapsed.
	for _, float := range []bool{false, true, false, true, false, false, false, true, false} {
		if float {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
		} else {
			b = binary.AppendVarint(b, 1)
		}
	}
	for _, name := range []string{"ops", "msgs", "recvs"} {
		b = binary.AppendUvarint(b, count(name))
		if name == big {
			return b
		}
	}
	return b
}

// oversizedCounts are declared counts with no data behind them: the
// largest the decoder accepts, and two that wrap a signed int (2^63 and
// 2^64-1, both valid 10-byte uvarints).
var oversizedCounts = []struct {
	name string
	n    uint64
}{{"2^31-1", math.MaxInt32}, {"2^63", 1 << 63}, {"2^64-1", math.MaxUint64}}

// TestDecodeBinaryBoundsAllocation: every count in the format comes from
// the input, so a header declaring 2^31-1 or more procs, operations,
// messages or receive patterns with no data behind it must fail — not
// panic — without allocating for the count. The first case is the 11-byte
// input (2^28 procs) that used to allocate over a gigabyte before failing
// with EOF.
func TestDecodeBinaryBoundsAllocation(t *testing.T) {
	short := []byte(binaryMagic)
	short = binary.AppendUvarint(short, binaryVersion)
	short = binary.AppendUvarint(short, 1<<28)
	short = binary.AppendUvarint(short, 1)
	if len(short) != 11 {
		t.Fatalf("short header is %d bytes, want 11", len(short))
	}
	if g, err := DecodeBinary(bytes.NewReader(craftedHeader("", 0))); err != nil || g.Procs != 1 {
		t.Fatalf("the all-zero crafted graph does not decode: %v", err)
	}
	cases := map[string][]byte{"procs 2^28 (11 bytes)": short}
	for _, big := range []string{"procs", "ops", "msgs", "recvs"} {
		for _, c := range oversizedCounts {
			cases[big+" "+c.name] = craftedHeader(big, c.n)
		}
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBinary(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb >= 1 {
			t.Errorf("%s: allocated %.1f MB before failing, want < 1 MB", name, mb)
		}
	}
}

// FuzzDecodeBinary feeds arbitrary bytes to the binary decoder, seeded with
// TestBinaryRoundTrip's graphs and the crafted oversized headers. It must
// never panic, and a graph it accepts must validate, re-encode, and decode
// to the same graph.
func FuzzDecodeBinary(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		var buf bytes.Buffer
		if err := randomGraph(r, true).EncodeBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, big := range []string{"procs", "ops", "msgs", "recvs"} {
		for _, c := range oversizedCounts {
			f.Add(craftedHeader(big, c.n))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph does not validate: %v", err)
		}
		var buf bytes.Buffer
		if err := g.EncodeBinary(&buf); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := DecodeBinary(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(again, g) {
			t.Fatalf("re-encoded graph diverged\n got %+v\nwant %+v", again, g)
		}
	})
}

// TestValidateRejectsCorruption spot-checks that single-field corruptions
// of a valid graph are caught before the evaluator could index with them.
func TestValidateRejectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var g *Graph
	for g == nil || len(g.MsgSrc) == 0 || len(g.RecvFrom) == 0 {
		g = randomGraph(r, false)
	}
	send, recv := -1, -1
	for i, k := range g.Ops {
		if k == OpSend && send < 0 {
			send = i
		}
		if k == OpRecv && recv < 0 {
			recv = i
		}
	}
	corrupt := map[string]func(*Graph){
		"unknown op kind":      func(g *Graph) { g.Ops[0] = opKinds },
		"negative rank":        func(g *Graph) { g.Rank[0] = -1 },
		"cluster out of range": func(g *Graph) { g.ClusterOf[0] = int32(g.Clusters) },
		"send out of order":    func(g *Graph) { g.Arg[send]++ },
		"message dst invalid":  func(g *Graph) { g.MsgDst[0] = int32(g.Procs) },
		"negative size":        func(g *Graph) { g.MsgBytes[0] = -1 },
		"recv before send":     func(g *Graph) { g.Arg[recv] = int64(len(g.MsgSrc)) },
		"non-finite ref":       func(g *Graph) { g.Ref.WANMessageRTTFactor = math.NaN() },
	}
	for name, mutate := range corrupt {
		var buf bytes.Buffer
		if err := g.EncodeBinary(&buf); err != nil {
			t.Fatal(err)
		}
		c, err := DecodeBinary(&buf) // deep copy via the codec
		if err != nil {
			t.Fatal(err)
		}
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: corruption passed Validate", name)
		}
	}
}

// TestEvalDeterminism: both evaluators are pure functions of (graph,
// params) — repeated solves on one evaluator and fresh evaluators must
// agree exactly.
func TestEvalDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		g := randomGraph(r, true)
		p := g.Ref
		p.WANLatency = p.WANLatency*3 + 1
		p.WANBandwidth /= 2
		ev := NewEval(g)
		frozen, matched := ev.Solve(p), ev.SolveMatched(p)
		if again := ev.Solve(p); again != frozen {
			t.Fatalf("graph %d: Solve not deterministic: %d then %d", i, frozen, again)
		}
		if again := ev.SolveMatched(p); again != matched {
			t.Fatalf("graph %d: SolveMatched not deterministic: %d then %d", i, matched, again)
		}
		fresh := NewEval(g)
		if got := fresh.SolveMatched(p); got != matched {
			t.Fatalf("graph %d: fresh evaluator disagrees: %d vs %d", i, got, matched)
		}
		if got := fresh.Solve(p); got != frozen {
			t.Fatalf("graph %d: fresh frozen solve disagrees: %d vs %d", i, got, frozen)
		}
	}
}

// TestConcurrentEvalsShareGraph runs independent evaluators over one
// shared graph from several goroutines — the documented concurrency
// contract (read-only graph, per-goroutine Eval). Run under -race this
// is the regression test for unsynchronized graph mutation.
func TestConcurrentEvalsShareGraph(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(6)), true)
	p := g.Ref
	p.WANLatency *= 5
	want := NewEval(g).SolveMatched(p)
	wantFrozen := NewEval(g).Solve(p)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			ev := NewEval(g)
			for i := 0; i < 10; i++ {
				if got := ev.SolveMatched(p); got != want {
					done <- fmt.Errorf("SolveMatched %d, want %d", got, want)
					return
				}
				if got := ev.Solve(p); got != wantFrozen {
					done <- fmt.Errorf("Solve %d, want %d", got, wantFrozen)
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

package wantopo

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// referenceDistances is an independent check on the routing layer: plain
// Floyd-Warshall over latency scale, with hop count as secondary metric.
func referenceDistances(w *WAN) ([][]float64, [][]int) {
	n := w.Nodes()
	dist := make([][]float64, n)
	hops := make([][]int, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		hops[i] = make([]int, n)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = math.Inf(1)
				hops[i][j] = 1 << 30
			}
		}
	}
	for i := 0; i < w.NumEdges(); i++ {
		e := w.Edge(i)
		if e.LatScale < dist[e.Src][e.Dst] {
			dist[e.Src][e.Dst] = e.LatScale
			hops[e.Src][e.Dst] = 1
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				nd := dist[i][k] + dist[k][j]
				nh := hops[i][k] + hops[k][j]
				if nd < dist[i][j] || (nd == dist[i][j] && nh < hops[i][j]) {
					dist[i][j] = nd
					hops[i][j] = nh
				}
			}
		}
	}
	return dist, hops
}

// checkRoutes asserts the structural route invariants on any graph: routes
// chain source to destination without repeating a node, their cost and hop
// count match the independent reference shortest paths, and costs are
// symmetric on the symmetric generators.
func checkRoutes(t *testing.T, w *WAN) {
	t.Helper()
	dist, hops := referenceDistances(w)
	c := w.Clusters()
	cost := func(s, d int) float64 {
		total := 0.0
		at := s
		seen := map[int]bool{s: true}
		for _, id := range w.Route(s, d) {
			e := w.Edge(int(id))
			if e.Src != at {
				t.Fatalf("%s: route %d->%d: edge %d->%d does not chain from %d", w.Spec(), s, d, e.Src, e.Dst, at)
			}
			if seen[e.Dst] {
				t.Fatalf("%s: route %d->%d revisits node %d", w.Spec(), s, d, e.Dst)
			}
			seen[e.Dst] = true
			at = e.Dst
			total += e.LatScale
		}
		if at != d {
			t.Fatalf("%s: route %d->%d ends at %d", w.Spec(), s, d, at)
		}
		return total
	}
	for s := 0; s < c; s++ {
		for d := 0; d < c; d++ {
			if s == d {
				if len(w.Route(s, d)) != 0 {
					t.Fatalf("%s: non-empty self route at %d", w.Spec(), s)
				}
				continue
			}
			got := cost(s, d)
			if math.Abs(got-dist[s][d]) > 1e-9 {
				t.Fatalf("%s: route %d->%d cost %g, shortest is %g", w.Spec(), s, d, got, dist[s][d])
			}
			if w.Hops(s, d) != hops[s][d] {
				t.Fatalf("%s: route %d->%d has %d hops, reference says %d", w.Spec(), s, d, w.Hops(s, d), hops[s][d])
			}
			back := cost(d, s)
			if math.Abs(got-back) > 1e-9 {
				t.Fatalf("%s: asymmetric cost %d<->%d: %g vs %g", w.Spec(), s, d, got, back)
			}
		}
	}
}

func TestCliqueShape(t *testing.T) {
	for _, c := range []int{1, 2, 4, 9} {
		w := Clique(c)
		if w.NumEdges() != c*(c-1) {
			t.Fatalf("clique %d: %d edges", c, w.NumEdges())
		}
		if c > 1 && (w.Diameter() != 1 || w.MeanPathLength() != 1) {
			t.Fatalf("clique %d: diameter %d mpl %g", c, w.Diameter(), w.MeanPathLength())
		}
		if key := w.CacheKey(); key != "" {
			t.Fatalf("clique cache key %q, want empty", key)
		}
		if !w.IsClique() {
			t.Fatal("IsClique false on clique")
		}
		half := (c + 1) / 2
		if want := 2 * half * (c - half); w.BisectionLinks() != want {
			t.Fatalf("clique %d: bisection %d, want %d", c, w.BisectionLinks(), want)
		}
		checkRoutes(t, w)
	}
	if Clique(4) != Clique(4) {
		t.Fatal("clique values not memoized")
	}
}

// ringMPL is the closed form for the mean path length of an n-cycle.
func ringMPL(n int) float64 {
	if n%2 == 0 {
		return float64(n) * float64(n) / (4 * float64(n-1))
	}
	return float64(n+1) / 4
}

func TestRingClosedForms(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 13} {
		w, err := Ring(n)
		if err != nil {
			t.Fatal(err)
		}
		if w.Diameter() != n/2 {
			t.Fatalf("ring %d: diameter %d, want %d", n, w.Diameter(), n/2)
		}
		if got, want := w.MeanPathLength(), ringMPL(n); math.Abs(got-want) > 1e-9 {
			t.Fatalf("ring %d: mpl %g, want %g", n, got, want)
		}
		if n > 2 && w.BisectionLinks() != 4 {
			t.Fatalf("ring %d: bisection %d, want 4", n, w.BisectionLinks())
		}
		checkRoutes(t, w)
	}
}

// ringDistSum is the sum of cycle distances from one node to every node.
func ringDistSum(n int) float64 {
	if n%2 == 0 {
		return float64(n*n) / 4
	}
	return float64(n*n-1) / 4
}

func TestTorusClosedForms(t *testing.T) {
	cases := [][]int{{2, 2}, {3, 3}, {4, 4}, {2, 5}, {4, 8}, {2, 3, 4}, {3, 3, 3}}
	for _, dims := range cases {
		w, err := Torus(dims)
		if err != nil {
			t.Fatal(err)
		}
		n := 1
		wantDiam := 0
		distSum := 0.0
		for _, d := range dims {
			n *= d
			wantDiam += d / 2
		}
		for _, d := range dims {
			distSum += float64(n) / float64(d) * ringDistSum(d)
		}
		wantMPL := distSum / float64(n-1)
		if w.Diameter() != wantDiam {
			t.Fatalf("torus %v: diameter %d, want %d", dims, w.Diameter(), wantDiam)
		}
		if math.Abs(w.MeanPathLength()-wantMPL) > 1e-9 {
			t.Fatalf("torus %v: mpl %g, want %g", dims, w.MeanPathLength(), wantMPL)
		}
		checkRoutes(t, w)
	}
	// Row-major id cut of a 4x4 torus: each column crosses the halves at two
	// row boundaries, both directions — 16 directed links.
	w, _ := Torus([]int{4, 4})
	if w.BisectionLinks() != 16 {
		t.Fatalf("4x4 torus bisection %d, want 16", w.BisectionLinks())
	}
}

func TestCirculantPublishedCases(t *testing.T) {
	// Optimal double-loop networks from the circulant literature:
	// C(8; 1,3) has diameter 2, MPL 10/7; C(13; 1,5) is the classic optimal
	// 13-node double loop — diameter 2, every non-zero residue reachable in
	// two steps of ±1, ±5, MPL 20/12.
	cases := []struct {
		n       int
		offsets []int
		diam    int
		mpl     float64
	}{
		{8, []int{1, 3}, 2, 10.0 / 7},
		{13, []int{1, 5}, 2, 20.0 / 12},
	}
	for _, tc := range cases {
		w, err := Circulant(tc.n, tc.offsets)
		if err != nil {
			t.Fatal(err)
		}
		if w.Diameter() != tc.diam {
			t.Fatalf("C(%d;%v): diameter %d, want %d", tc.n, tc.offsets, w.Diameter(), tc.diam)
		}
		if math.Abs(w.MeanPathLength()-tc.mpl) > 1e-9 {
			t.Fatalf("C(%d;%v): mpl %g, want %g", tc.n, tc.offsets, w.MeanPathLength(), tc.mpl)
		}
		checkRoutes(t, w)
	}
	if _, err := Circulant(8, []int{2, 4}); err == nil {
		t.Fatal("disconnected circulant accepted")
	}
	if _, err := Circulant(8, []int{5}); err == nil {
		t.Fatal("offset above n/2 accepted")
	}
}

func TestFatTreeShape(t *testing.T) {
	w, err := FatTree(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w.Nodes() != 8+2+1 {
		t.Fatalf("fat tree nodes %d, want 11", w.Nodes())
	}
	// Same pod: up to the pod switch and down — 2 hops. Cross pod: 4.
	if h := w.Hops(0, 1); h != 2 {
		t.Fatalf("same-pod hops %d, want 2", h)
	}
	if h := w.Hops(0, 5); h != 4 {
		t.Fatalf("cross-pod hops %d, want 4", h)
	}
	if w.Diameter() != 4 {
		t.Fatalf("fat tree diameter %d, want 4", w.Diameter())
	}
	// Upper links are proportionally fatter.
	id, ok := w.EdgeBetween(8, 10)
	if !ok || w.Edge(id).BWScale != 4 {
		t.Fatalf("pod uplink bandwidth scale wrong (ok=%v)", ok)
	}
	checkRoutes(t, w)
	if _, err := FatTree(8, 3); err == nil {
		t.Fatal("non-dividing pod size accepted")
	}
}

func TestMinMPLSearch(t *testing.T) {
	a, err := MinMPL(24, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MinMPL(24, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("MinMPL not deterministic for a fixed seed")
	}
	ring, _ := Ring(24)
	if a.MeanPathLength() >= ring.MeanPathLength() {
		t.Fatalf("minmpl MPL %g not better than ring %g", a.MeanPathLength(), ring.MeanPathLength())
	}
	if a.Spec() != "minmpl:4:1" {
		t.Fatalf("spec %q", a.Spec())
	}
	checkRoutes(t, a)
}

// Parse's table at 16 clusters; FuzzParse seeds its corpus from it.
var (
	parseGood = []struct{ spec, canonical string }{
		{"", "clique"},
		{"clique", "clique"},
		{"ring", "ring"},
		{"torus:4x4", "torus:4x4"},
		{"torus2", "torus:4x4"},
		{"torus3", "torus:4x2x2"},
		{"circulant:1,5", "circulant:1,5"},
		{"circulant", "circulant:1,4"},
		{"fattree:4", "fattree:4"},
		{"minmpl:4:7", "minmpl:4:7"},
	}
	parseBad = []string{"mesh", "torus:3x3", "torus:x", "circulant:0", "circulant:9",
		"fattree:5", "fattree:x", "minmpl:3", "minmpl:x", "clique:2", "ring:4"}
)

func TestParse(t *testing.T) {
	for _, tc := range parseGood {
		w, err := Parse(tc.spec, 16)
		if err != nil {
			t.Fatalf("Parse(%q, 16): %v", tc.spec, err)
		}
		if w.Spec() != tc.canonical {
			t.Fatalf("Parse(%q, 16) spec %q, want %q", tc.spec, w.Spec(), tc.canonical)
		}
	}
	for _, spec := range parseBad {
		if _, err := Parse(spec, 16); err == nil {
			t.Fatalf("Parse(%q, 16) accepted", spec)
		}
	}
}

// FuzzParse feeds Parse arbitrary -wan-topology strings on 1..64 clusters:
// it must never panic, and whatever it accepts must build the same graph
// twice, route every cluster pair, and name itself with a spec Parse turns
// back into that graph.
func FuzzParse(f *testing.F) {
	for _, tc := range parseGood {
		f.Add(tc.spec, uint8(16))
	}
	for _, spec := range parseBad {
		f.Add(spec, uint8(16))
	}
	f.Add("torus:2x3x4", uint8(24))
	f.Add("minmpl:6", uint8(64))
	f.Add("fattree:1", uint8(2))
	f.Fuzz(func(t *testing.T, spec string, c uint8) {
		clusters := 1 + int(c)%64
		w, err := Parse(spec, clusters)
		if err != nil {
			return
		}
		if w.Clusters() != clusters {
			t.Fatalf("Parse(%q, %d) built %d clusters", spec, clusters, w.Clusters())
		}
		checkRoutes(t, w)
		for _, again := range []string{spec, w.Spec()} {
			w2, err := Parse(again, clusters)
			if err != nil {
				t.Fatalf("Parse(%q, %d) accepted, then Parse(%q) failed: %v", spec, clusters, again, err)
			}
			if !reflect.DeepEqual(w, w2) {
				t.Fatalf("Parse(%q, %d) and Parse(%q) built different graphs", spec, clusters, again)
			}
		}
	})
}

// TestRoutesByteIdentical rebuilds the same graphs under different
// GOMAXPROCS values and from multiple goroutines; every copy must be
// deeply identical — route construction is sequential and input-ordered.
func TestRoutesByteIdentical(t *testing.T) {
	specs := []string{"ring", "torus:4x4", "circulant:1,5", "fattree:4", "minmpl:4:3"}
	build := func(spec string) *WAN {
		w, err := Parse(spec, 16)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, spec := range specs {
		runtime.GOMAXPROCS(1)
		base := build(spec)
		runtime.GOMAXPROCS(4)
		type out struct{ w *WAN }
		ch := make(chan out, 4)
		for i := 0; i < 4; i++ {
			go func() { ch <- out{build(spec)} }()
		}
		for i := 0; i < 4; i++ {
			got := <-ch
			if !reflect.DeepEqual(base, got.w) && fmt.Sprintf("%+v", base) != fmt.Sprintf("%+v", got.w) {
				t.Fatalf("%s: routes differ across GOMAXPROCS/goroutines", spec)
			}
		}
	}
}

func TestHopHistogram(t *testing.T) {
	w, _ := Ring(6)
	// From each of 6 nodes: two 1-hop, two 2-hop, one 3-hop neighbor.
	want := []int{0, 12, 12, 6}
	if got := w.HopHistogram(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring 6 hop histogram %v, want %v", got, want)
	}
}

// TestRouteTableCaps: machines whose route tables would pass a cap are
// refused with an error naming it, before the tables are allocated; the
// largest clique inside the caps is not.
func TestRouteTableCaps(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		clusters int
		cap      string
	}{
		{"clique", 100000, "maxRoutePairs"},
		{"ring", 1 << 20, "maxRoutePairs"},
		{"torus2", math.MaxInt, "maxRoutePairs"},
		{"ring", 2048, "maxRouteHops"},
	} {
		if _, err := Parse(tc.spec, tc.clusters); err == nil || !strings.Contains(err.Error(), tc.cap) {
			t.Errorf("Parse(%q, %d): err = %v, want the %s refusal", tc.spec, tc.clusters, err, tc.cap)
		}
	}
	if err := checkRoutePairs(2048); err != nil {
		t.Errorf("2048 clusters: %v", err)
	}
	if err := checkRoutePairs(2049); err == nil {
		t.Error("2049 clusters passed the route-pair cap")
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "maxRoutePairs") {
				t.Errorf("Clique(100000) recovered %v, want the maxRoutePairs refusal", r)
			}
		}()
		Clique(100000)
	}()
}

package wantopo

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// cliques memoizes the default graph per cluster count: every network
// instance of a sweep shares one immutable clique value instead of
// recomputing C^2 one-hop routes per run.
var cliques sync.Map // int -> *WAN

// Clique returns the paper's fully connected inter-cluster mesh: every
// ordered cluster pair gets its own dedicated unit-scale link, so every
// route is a single hop. This is the default wide-area graph; it is what
// the pre-topology network model hard-coded. Past the route-pair cap it
// panics; Parse returns the error instead.
func Clique(clusters int) *WAN {
	if w, ok := cliques.Load(clusters); ok {
		return w.(*WAN)
	}
	if err := checkRoutePairs(clusters); err != nil {
		panic(err)
	}
	edges := make([]Edge, 0, clusters*(clusters-1))
	for s := 0; s < clusters; s++ {
		for d := 0; d < clusters; d++ {
			if s != d {
				edges = append(edges, Edge{Src: s, Dst: d, LatScale: 1, BWScale: 1})
			}
		}
	}
	w, err := build("clique", clusters, clusters, edges)
	if err != nil {
		panic(err) // cliques are valid for every positive cluster count
	}
	actual, _ := cliques.LoadOrStore(clusters, w)
	return actual.(*WAN)
}

// symmetric appends the unit-scale directed edge pair a<->b unless present.
func symmetric(edges []Edge, a, b int) []Edge {
	for _, e := range edges {
		if e.Src == a && e.Dst == b {
			return edges
		}
	}
	return append(edges, Edge{Src: a, Dst: b, LatScale: 1, BWScale: 1},
		Edge{Src: b, Dst: a, LatScale: 1, BWScale: 1})
}

// Ring connects cluster i to its two id-neighbors modulo the cluster count:
// the sparsest connected symmetric graph, the worst case for bisection
// bandwidth (always 4 directed links) and the baseline the
// minimal-mean-path-length search must beat.
func Ring(clusters int) (*WAN, error) {
	if clusters < 2 {
		return nil, fmt.Errorf("wantopo: ring needs at least 2 clusters, got %d", clusters)
	}
	var edges []Edge
	for i := 0; i < clusters; i++ {
		edges = symmetric(edges, i, (i+1)%clusters)
	}
	return build("ring", clusters, clusters, edges)
}

// Torus builds a 2D or 3D torus (the APENet shape) over the given
// dimensions, whose product must equal the cluster count. Clusters are
// numbered row-major; each connects to its ±1 neighbor along every axis,
// wrapping around.
func Torus(dims []int) (*WAN, error) {
	if len(dims) != 2 && len(dims) != 3 {
		return nil, fmt.Errorf("wantopo: torus needs 2 or 3 dimensions, got %d", len(dims))
	}
	clusters := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("wantopo: torus dimension %d", d)
		}
		clusters *= d
	}
	if clusters < 2 {
		return nil, fmt.Errorf("wantopo: torus %v has fewer than 2 clusters", dims)
	}
	// strides for row-major numbering
	stride := make([]int, len(dims))
	stride[len(dims)-1] = 1
	for i := len(dims) - 2; i >= 0; i-- {
		stride[i] = stride[i+1] * dims[i+1]
	}
	coord := func(id, axis int) int { return id / stride[axis] % dims[axis] }
	var edges []Edge
	for id := 0; id < clusters; id++ {
		for axis := range dims {
			if dims[axis] == 1 {
				continue
			}
			c := coord(id, axis)
			up := id + ((c+1)%dims[axis]-c)*stride[axis]
			edges = symmetric(edges, id, up)
		}
	}
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = strconv.Itoa(d)
	}
	return build("torus:"+strings.Join(parts, "x"), clusters, clusters, edges)
}

// Circulant builds the circulant graph C(n; s1, s2, ...): cluster i connects
// to i±s for every offset s — the family Deng, Huang et al. search for
// minimal mean path length. Offsets must be distinct and within [1, n/2];
// the graph must come out connected (gcd of the offsets and n equal 1).
func Circulant(clusters int, offsets []int) (*WAN, error) {
	if clusters < 2 {
		return nil, fmt.Errorf("wantopo: circulant needs at least 2 clusters, got %d", clusters)
	}
	if len(offsets) == 0 {
		return nil, fmt.Errorf("wantopo: circulant needs at least one offset")
	}
	seen := map[int]bool{}
	g := clusters
	for _, s := range offsets {
		if s < 1 || s > clusters/2 {
			return nil, fmt.Errorf("wantopo: circulant offset %d outside [1, %d]", s, clusters/2)
		}
		if seen[s] {
			return nil, fmt.Errorf("wantopo: duplicate circulant offset %d", s)
		}
		seen[s] = true
		g = gcd(g, s)
	}
	if g != 1 {
		return nil, fmt.Errorf("wantopo: circulant %v on %d clusters is disconnected (gcd %d)", offsets, clusters, g)
	}
	sorted := append([]int(nil), offsets...)
	sort.Ints(sorted)
	var edges []Edge
	for i := 0; i < clusters; i++ {
		for _, s := range sorted {
			edges = symmetric(edges, i, (i+s)%clusters)
		}
	}
	parts := make([]string, len(sorted))
	for i, s := range sorted {
		parts[i] = strconv.Itoa(s)
	}
	return build("circulant:"+strings.Join(parts, ","), clusters, clusters, edges)
}

// FatTree builds a two-level switched tree: clusters are grouped into pods
// of the given size, each pod hangs off a relay switch, and the pod switches
// hang off one core switch over proportionally fatter links (bandwidth scale
// = pod size), the classic thin-tree remedy. Cross-pod routes take four
// hops: cluster -> pod switch -> core -> pod switch -> cluster.
func FatTree(clusters, pod int) (*WAN, error) {
	if clusters < 2 {
		return nil, fmt.Errorf("wantopo: fat tree needs at least 2 clusters, got %d", clusters)
	}
	if pod < 1 || clusters%pod != 0 {
		return nil, fmt.Errorf("wantopo: pod size %d must divide the cluster count %d", pod, clusters)
	}
	pods := clusters / pod
	var edges []Edge
	if pods == 1 {
		// One pod: a single switch, no core level.
		sw := clusters
		for i := 0; i < clusters; i++ {
			edges = symmetric(edges, i, sw)
		}
		return build(fmt.Sprintf("fattree:%d", pod), clusters, clusters+1, edges)
	}
	core := clusters + pods
	for p := 0; p < pods; p++ {
		sw := clusters + p
		for i := 0; i < pod; i++ {
			edges = symmetric(edges, p*pod+i, sw)
		}
		edges = append(edges,
			Edge{Src: sw, Dst: core, LatScale: 1, BWScale: float64(pod)},
			Edge{Src: core, Dst: sw, LatScale: 1, BWScale: float64(pod)})
	}
	return build(fmt.Sprintf("fattree:%d", pod), clusters, clusters+pods+1, edges)
}

// MinMPL searches for a circulant offset set of the given even degree with
// small mean path length, following Deng et al.'s observation that minimal-
// MPL regular graphs make the best cluster fabrics. The search is a seeded
// deterministic hill climb: starting from offset 1 plus evenly spread seeds,
// it repeatedly proposes replacing one offset with a pseudo-random
// candidate and keeps strict improvements. The result is reproducible for a
// given (clusters, degree, seed) and always contains offset 1 (guaranteeing
// connectivity).
func MinMPL(clusters, degree int, seed int64) (*WAN, error) {
	if clusters < 2 {
		return nil, fmt.Errorf("wantopo: minmpl needs at least 2 clusters, got %d", clusters)
	}
	if degree < 2 || degree%2 != 0 {
		return nil, fmt.Errorf("wantopo: minmpl degree must be a positive even number, got %d", degree)
	}
	k := degree / 2
	maxOff := clusters / 2
	if k > maxOff {
		k = maxOff // every possible offset in use: the search is trivial
	}
	offsets := make([]int, 0, k)
	offsets = append(offsets, 1)
	for len(offsets) < k {
		// Spread the initial offsets evenly; the climb refines them.
		cand := 1 + len(offsets)*maxOff/k
		for contains(offsets, cand) || cand > maxOff {
			cand--
		}
		if cand < 1 {
			break
		}
		offsets = append(offsets, cand)
	}
	best := circulantMPL(clusters, offsets)
	rng := uint64(seed)*2654435769 + 0x9e3779b97f4a7c15
	next := func(n int) int {
		// splitmix64: deterministic across platforms, no shared state.
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return int(z % uint64(n))
	}
	if k > 1 {
		for iter := 0; iter < 64*k; iter++ {
			i := 1 + next(k-1) // never replace offset 1 (keeps connectivity)
			cand := 2 + next(maxOff-1)
			if contains(offsets, cand) {
				continue
			}
			old := offsets[i]
			offsets[i] = cand
			if mpl := circulantMPL(clusters, offsets); mpl < best {
				best = mpl
			} else {
				offsets[i] = old
			}
		}
	}
	sort.Ints(offsets)
	w, err := Circulant(clusters, offsets)
	if err != nil {
		return nil, err
	}
	// Re-label with the search spec so the cache key records intent (the
	// found offsets are a deterministic function of it).
	w2 := *w
	w2.spec = fmt.Sprintf("minmpl:%d:%d", degree, seed)
	return &w2, nil
}

// circulantMPL computes the mean shortest-path hop length of C(n; offsets)
// by BFS from node 0 — circulant graphs are vertex-transitive, so one
// source suffices. Used only by the MinMPL search loop.
func circulantMPL(n int, offsets []int) float64 {
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	queue := []int{0}
	total, reached := 0, 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, s := range offsets {
			for _, v := range []int{(u + s) % n, (u - s + n) % n} {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					total += dist[v]
					reached++
					queue = append(queue, v)
				}
			}
		}
	}
	if reached < n-1 {
		return math.Inf(1) // disconnected candidates never win
	}
	return float64(total) / float64(n-1)
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Parse builds the WAN graph named by spec for the given cluster count.
// Accepted forms:
//
//	clique (or "")          the paper's fully connected mesh (default)
//	ring                    bidirectional cycle
//	torus:AxB, torus:AxBxC  explicit torus dimensions (product = clusters)
//	torus2, torus3          torus with auto-factored near-square/cube dims
//	circulant:s1,s2,...     circulant graph with the given offsets
//	circulant               C(n; 1, ~sqrt(n)), the classic two-offset choice
//	fattree:POD             two-level switched tree, pods of POD clusters
//	minmpl:DEGREE[:SEED]    seeded minimal-mean-path-length circulant search
//
// Invalid specs return an error; CLIs map it to exit code 2.
func Parse(spec string, clusters int) (*WAN, error) {
	if clusters < 1 {
		return nil, fmt.Errorf("wantopo: %d clusters", clusters)
	}
	if err := checkRoutePairs(clusters); err != nil {
		return nil, err
	}
	name, arg, _ := strings.Cut(spec, ":")
	switch name {
	case "", "clique":
		if arg != "" {
			return nil, fmt.Errorf("wantopo: clique takes no arguments (got %q)", spec)
		}
		return Clique(clusters), nil
	case "ring":
		if arg != "" {
			return nil, fmt.Errorf("wantopo: ring takes no arguments (got %q)", spec)
		}
		return Ring(clusters)
	case "torus2", "torus3":
		if arg != "" {
			return nil, fmt.Errorf("wantopo: %s takes no arguments (got %q)", name, spec)
		}
		d := 2
		if name == "torus3" {
			d = 3
		}
		return Torus(factorize(clusters, d))
	case "torus":
		var dims []int
		for _, p := range strings.Split(arg, "x") {
			v, err := strconv.Atoi(p)
			if err != nil {
				return nil, fmt.Errorf("wantopo: bad torus dimensions %q", spec)
			}
			dims = append(dims, v)
		}
		product := 1
		for _, d := range dims {
			product *= d
		}
		if product != clusters {
			return nil, fmt.Errorf("wantopo: torus %q covers %d clusters, machine has %d", spec, product, clusters)
		}
		return Torus(dims)
	case "circulant":
		if arg == "" {
			s := int(math.Round(math.Sqrt(float64(clusters))))
			if s < 2 {
				s = 2
			}
			if s > clusters/2 {
				s = clusters / 2
			}
			if s <= 1 {
				return Circulant(clusters, []int{1})
			}
			return Circulant(clusters, []int{1, s})
		}
		var offsets []int
		for _, p := range strings.Split(arg, ",") {
			v, err := strconv.Atoi(p)
			if err != nil {
				return nil, fmt.Errorf("wantopo: bad circulant offsets %q", spec)
			}
			offsets = append(offsets, v)
		}
		return Circulant(clusters, offsets)
	case "fattree":
		pod, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("wantopo: bad fat-tree pod size %q", spec)
		}
		return FatTree(clusters, pod)
	case "minmpl":
		degS, seedS, hasSeed := strings.Cut(arg, ":")
		deg, err := strconv.Atoi(degS)
		if err != nil {
			return nil, fmt.Errorf("wantopo: bad minmpl degree %q", spec)
		}
		var seed int64
		if hasSeed {
			seed, err = strconv.ParseInt(seedS, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("wantopo: bad minmpl seed %q", spec)
			}
		}
		return MinMPL(clusters, deg, seed)
	}
	return nil, fmt.Errorf("wantopo: unknown topology %q (want clique, ring, torus, torus2, torus3, circulant, fattree or minmpl)", spec)
}

// factorize splits n into d factors as close to equal as possible:
// the largest divisor not above the d-th root first, recursively.
func factorize(n, d int) []int {
	if d == 1 {
		return []int{n}
	}
	root := int(math.Round(math.Pow(float64(n), 1/float64(d))))
	best := 1
	for f := root; f >= 1; f-- {
		if n%f == 0 {
			best = f
			break
		}
	}
	// Prefer the factor just above the root when it divides more evenly
	// (e.g. 8 into 2 dims should be 2x4 either way; 12 into 2 -> 3x4).
	for f := root + 1; f <= n; f++ {
		if n%f == 0 {
			if float64(f)/float64(root) < float64(root)/float64(best) {
				best = f
			}
			break
		}
	}
	return append([]int{best}, factorize(n/best, d-1)...)
}

package barneshut

import (
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Vec is a 3-component vector.
type Vec struct{ X, Y, Z float64 }

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v * s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s, v.Z * s} }

// Body is a point mass.
type Body struct {
	Pos  Vec
	Vel  Vec
	Mass float64
}

// Interactor is one entry of an exported essential set: either a real body
// or a cell aggregate (centre of mass).
type Interactor struct {
	Pos  Vec
	Mass float64
}

// box is an axis-aligned bounding box.
type box struct {
	min, max Vec
}

// boundsOf computes the bounding box of a set of bodies.
func boundsOf(bodies []Body) box {
	b := box{
		min: Vec{math.Inf(1), math.Inf(1), math.Inf(1)},
		max: Vec{math.Inf(-1), math.Inf(-1), math.Inf(-1)},
	}
	for _, bd := range bodies {
		b.min.X = math.Min(b.min.X, bd.Pos.X)
		b.min.Y = math.Min(b.min.Y, bd.Pos.Y)
		b.min.Z = math.Min(b.min.Z, bd.Pos.Z)
		b.max.X = math.Max(b.max.X, bd.Pos.X)
		b.max.Y = math.Max(b.max.Y, bd.Pos.Y)
		b.max.Z = math.Max(b.max.Z, bd.Pos.Z)
	}
	return b
}

// distanceTo returns the minimum Euclidean distance from the box to point
// p, zero if p is inside.
func (b box) distanceTo(p Vec) float64 {
	gap := func(lo, hi, v float64) float64 {
		if v < lo {
			return lo - v
		}
		if v > hi {
			return v - hi
		}
		return 0
	}
	dx := gap(b.min.X, b.max.X, p.X)
	dy := gap(b.min.Y, b.max.Y, p.Y)
	dz := gap(b.min.Z, b.max.Z, p.Z)
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// gapTo returns the minimum distance between two boxes (zero if they
// overlap).
func (b box) gapTo(o box) float64 {
	gap := func(alo, ahi, blo, bhi float64) float64 {
		if ahi < blo {
			return blo - ahi
		}
		if bhi < alo {
			return alo - bhi
		}
		return 0
	}
	dx := gap(b.min.X, b.max.X, o.min.X, o.max.X)
	dy := gap(b.min.Y, b.max.Y, o.min.Y, o.max.Y)
	dz := gap(b.min.Z, b.max.Z, o.min.Z, o.max.Z)
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// node is an octree cell.
type node struct {
	center   Vec
	half     float64 // half edge length
	mass     float64
	com      Vec
	children [8]*node
	bodyIdx  []int // body indices if leaf (more than one only at the depth cap)
	leaf     bool  // true if no children
	count    int
}

// arena hands out octree nodes from chunked slabs and recycles them
// wholesale between tree builds. Trees are rebuilt every timestep on every
// rank, so pooling removes the dominant allocation of the build phase; a
// recycled node keeps its bodyIdx backing array, so steady-state builds
// allocate nothing at all. Chunks (not one growable slab) keep previously
// returned *node pointers stable while the arena grows. Chunk sizes double
// from arenaFirstChunk up to arenaChunk, so a rank whose tree holds a
// handful of bodies does not pay for a full chunk.
type arena struct {
	chunks [][]node
	chunk  int // current chunk index
	used   int // nodes handed out from the current chunk
}

const (
	arenaFirstChunk = 16
	arenaChunk      = 256
)

func newArena() *arena { return &arena{} }

// alloc returns a zeroed node, retaining only the recycled bodyIdx
// capacity.
func (a *arena) alloc() *node {
	if a.chunk == len(a.chunks) {
		size := arenaFirstChunk
		for k := 0; k < len(a.chunks) && size < arenaChunk; k++ {
			size *= 2
		}
		a.chunks = append(a.chunks, make([]node, size))
	}
	c := a.chunks[a.chunk]
	n := &c[a.used]
	a.used++
	if a.used == len(c) {
		a.chunk++
		a.used = 0
	}
	idx := n.bodyIdx
	*n = node{bodyIdx: idx[:0]}
	return n
}

// reset recycles every node. The caller must no longer use trees built
// from this arena.
func (a *arena) reset() { a.chunk, a.used = 0, 0 }

// tree is an octree over a body set, remembering the indices used.
type tree struct {
	root   *node
	bodies []Body
	nodes  int64 // created nodes, drives the build cost model
	a      *arena
}

const maxDepth = 24

// buildTree constructs an octree over the bodies (indices are positions in
// the slice) with a private arena; loops that rebuild trees every step use
// buildTreeIn to recycle one.
func buildTree(bodies []Body) *tree {
	return buildTreeIn(newArena(), bodies)
}

// buildTreeIn is buildTree allocating from a, which is reset first: trees
// previously built from a must be dead. Node placement, creation counts
// and all summarized values are identical to a fresh-allocation build.
func buildTreeIn(a *arena, bodies []Body) *tree {
	a.reset()
	t := &tree{bodies: bodies, a: a}
	if len(bodies) == 0 {
		return t
	}
	bb := boundsOf(bodies)
	center := bb.min.Add(bb.max).Scale(0.5)
	half := 0.0
	for _, v := range []float64{bb.max.X - bb.min.X, bb.max.Y - bb.min.Y, bb.max.Z - bb.min.Z} {
		half = math.Max(half, v/2)
	}
	half = math.Max(half, 1e-9)
	t.root = t.newNode(center, half)
	for i := range bodies {
		t.insert(t.root, i, 0)
	}
	t.summarize(t.root)
	return t
}

func (t *tree) newNode(center Vec, half float64) *node {
	t.nodes++
	n := t.a.alloc()
	n.center, n.half, n.leaf = center, half, true
	return n
}

func (t *tree) insert(n *node, idx, depth int) {
	n.count++
	if n.leaf {
		if len(n.bodyIdx) == 0 || depth >= maxDepth {
			// Empty leaf, or a depth-capped leaf holding (near-)coincident
			// bodies.
			n.bodyIdx = append(n.bodyIdx, idx)
			return
		}
		old := n.bodyIdx
		n.bodyIdx = old[:0] // keep the backing array for recycling
		n.leaf = false
		for _, o := range old {
			t.insertChild(n, o, depth)
		}
		t.insertChild(n, idx, depth)
		return
	}
	t.insertChild(n, idx, depth)
}

func (t *tree) insertChild(n *node, idx, depth int) {
	p := t.bodies[idx].Pos
	oct := 0
	off := Vec{-n.half / 2, -n.half / 2, -n.half / 2}
	if p.X > n.center.X {
		oct |= 1
		off.X = n.half / 2
	}
	if p.Y > n.center.Y {
		oct |= 2
		off.Y = n.half / 2
	}
	if p.Z > n.center.Z {
		oct |= 4
		off.Z = n.half / 2
	}
	if n.children[oct] == nil {
		n.children[oct] = t.newNode(n.center.Add(off), n.half/2)
	}
	t.insert(n.children[oct], idx, depth+1)
}

// summarize fills mass and centre of mass bottom-up.
func (t *tree) summarize(n *node) {
	if n == nil {
		return
	}
	if n.leaf {
		var com Vec
		for _, idx := range n.bodyIdx {
			b := t.bodies[idx]
			n.mass += b.Mass
			com = com.Add(b.Pos.Scale(b.Mass))
		}
		if n.mass > 0 {
			n.com = com.Scale(1 / n.mass)
		}
		return
	}
	var com Vec
	for _, c := range n.children {
		if c == nil {
			continue
		}
		t.summarize(c)
		n.mass += c.mass
		com = com.Add(c.com.Scale(c.mass))
	}
	if n.mass > 0 {
		n.com = com.Scale(1 / n.mass)
	}
}

// softening keeps the force finite for close encounters.
const softening = 1e-2

// accumulate adds the gravitational pull of an interactor at p on position
// pos into acc.
func accumulate(acc *Vec, pos Vec, it Interactor) {
	d := it.Pos.Sub(pos)
	r2 := d.X*d.X + d.Y*d.Y + d.Z*d.Z + softening
	inv := it.Mass / (r2 * math.Sqrt(r2))
	*acc = acc.Add(d.Scale(inv))
}

// forceAcc accumulates one body's traversal: the acceleration so far and
// the number of interactions evaluated. A struct threaded through a method
// recursion replaces the former per-call closure (closure + captured
// variables were a measurable share of the force phase); visit order and
// accumulate calls are unchanged, so results stay bit-identical.
type forceAcc struct {
	acc  Vec
	work int64
}

// forceNode is the shared theta-criterion descent: skip is the body index
// to exclude (self-interaction), or -1 to include everything.
func (t *tree) forceNode(n *node, pos Vec, skip int, theta float64, fa *forceAcc) {
	if n == nil || n.count == 0 {
		return
	}
	if n.leaf {
		for _, bi := range n.bodyIdx {
			if bi == skip {
				continue
			}
			accumulate(&fa.acc, pos, Interactor{t.bodies[bi].Pos, t.bodies[bi].Mass})
			fa.work++
		}
		return
	}
	d := pos.Sub(n.com)
	dist := math.Sqrt(d.X*d.X + d.Y*d.Y + d.Z*d.Z)
	if dist > 0 && 2*n.half/dist < theta {
		accumulate(&fa.acc, pos, Interactor{n.com, n.mass})
		fa.work++
		return
	}
	for _, c := range n.children {
		t.forceNode(c, pos, skip, theta, fa)
	}
}

// forceLocal computes the force on body idx from the local tree with the
// standard per-body theta traversal, skipping the body itself. It returns
// the acceleration and the number of interactions evaluated.
func (t *tree) forceLocal(idx int, theta float64) (Vec, int64) {
	var fa forceAcc
	t.forceNode(t.root, t.bodies[idx].Pos, idx, theta, &fa)
	return fa.acc, fa.work
}

// exportInto appends the essential set of this tree for a destination
// block bounding box to buf and returns it: aggregates for cells far
// enough under the theta criterion (measured against the box), individual
// bodies otherwise. visited counts traversed nodes for the cost model.
func (t *tree) exportInto(buf []Interactor, dest box, theta float64) (items []Interactor, visited int64) {
	ea := exportAcc{items: buf}
	t.exportNode(t.root, dest, theta, &ea)
	return ea.items, ea.visited
}

// exportAcc collects an export traversal. The items outlive the tree inside
// an essential-set message, so the caller's buffer may be one it sent
// before only once the receiver has provably copied that set out.
type exportAcc struct {
	items   []Interactor
	visited int64
}

func (t *tree) exportNode(n *node, dest box, theta float64, ea *exportAcc) {
	if n == nil || n.count == 0 {
		return
	}
	ea.visited++
	if n.leaf {
		for _, bi := range n.bodyIdx {
			ea.items = append(ea.items, Interactor{t.bodies[bi].Pos, t.bodies[bi].Mass})
		}
		return
	}
	nb := box{
		min: n.center.Add(Vec{-n.half, -n.half, -n.half}),
		max: n.center.Add(Vec{n.half, n.half, n.half}),
	}
	d := nb.gapTo(dest)
	if d > 0 && 2*n.half/d < theta {
		ea.items = append(ea.items, Interactor{n.com, n.mass})
		return
	}
	for _, c := range n.children {
		t.exportNode(c, dest, theta, ea)
	}
}

// initialBodies generates a deterministic Plummer-like cloud.
func initialBodies(n int, seed int64) []Body {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Body, n)
	for i := range out {
		out[i] = Body{
			Pos:  Vec{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
			Vel:  Vec{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1},
			Mass: 1.0 / float64(n),
		}
	}
	return out
}

// buildInteractorTree builds an octree over received essential-set items
// (treated as point masses), so the force phase can traverse them with the
// theta criterion instead of iterating flat lists — per-body work then
// stays logarithmic, as in Blackston and Suel's merged locally essential
// trees.
func buildInteractorTree(items []Interactor) *tree {
	t, _ := buildInteractorTreeIn(newArena(), nil, items)
	return t
}

// buildInteractorTreeIn is buildInteractorTree with a recycled arena and
// body scratch; it returns the (possibly regrown) scratch for the caller to
// keep. The per-step loops use it so the steady state of the gather phase
// allocates nothing.
func buildInteractorTreeIn(a *arena, scratch []Body, items []Interactor) (*tree, []Body) {
	bodies := scratch[:0]
	for _, it := range items {
		bodies = append(bodies, Body{Pos: it.Pos, Mass: it.Mass})
	}
	return buildTreeIn(a, bodies), bodies
}

// forceAt computes the pull of the whole tree on an external position with
// the theta criterion (no self-exclusion), returning the acceleration and
// the number of interactions evaluated.
func (t *tree) forceAt(pos Vec, theta float64) (Vec, int64) {
	var fa forceAcc
	t.forceNode(t.root, pos, -1, theta, &fa)
	return fa.acc, fa.work
}

// mortonKey interleaves 10 bits per dimension of the position quantized
// within the bounding box, giving a space-filling-curve ordering.
func mortonKey(p Vec, bb box) uint32 {
	quant := func(v, lo, hi float64) uint32 {
		if hi <= lo {
			return 0
		}
		q := (v - lo) / (hi - lo) * 1023
		if q < 0 {
			q = 0
		}
		if q > 1023 {
			q = 1023
		}
		return uint32(q)
	}
	x := quant(p.X, bb.min.X, bb.max.X)
	y := quant(p.Y, bb.min.Y, bb.max.Y)
	z := quant(p.Z, bb.min.Z, bb.max.Z)
	var key uint32
	for b := 9; b >= 0; b-- {
		key = key<<3 | (x>>b&1)<<2 | (y>>b&1)<<1 | (z >> b & 1)
	}
	return key
}

// spatialSort orders bodies along the Morton curve of their initial
// positions, so that contiguous index blocks are spatially compact — the
// property the essential-set aggregation depends on. Blackston and Suel
// partition space similarly; a static sort suffices for short runs. Keys
// are computed once per body (not once per comparison) and the sorter is a
// concrete sort.Interface, avoiding the reflection of sort.SliceStable;
// any stable sort under the same comparator yields the same permutation,
// so the ordering is unchanged.
func spatialSort(bodies []Body) {
	bb := boundsOf(bodies)
	s := mortonSorter{keys: make([]uint32, len(bodies)), bodies: bodies}
	for i := range bodies {
		s.keys[i] = mortonKey(bodies[i].Pos, bb)
	}
	sort.Stable(s)
}

type mortonSorter struct {
	keys   []uint32
	bodies []Body
}

func (s mortonSorter) Len() int           { return len(s.keys) }
func (s mortonSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s mortonSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.bodies[i], s.bodies[j] = s.bodies[j], s.bodies[i]
}

// bodyCache memoizes the Morton-sorted initial cloud per (n, seed): every
// rank of every run in a sweep regenerates the identical set, and the RNG
// plus the stable sort dominate setup at paper scale.
var bodyCache struct {
	sync.Mutex
	sets map[[2]int64][]Body
}

// sortedBodies returns the deterministic initial body set, already
// spatially sorted. The slice is pristine and shared read-only: callers
// copy the block they integrate in place.
func sortedBodies(n int, seed int64) []Body {
	key := [2]int64{int64(n), seed}
	bodyCache.Lock()
	pristine, ok := bodyCache.sets[key]
	bodyCache.Unlock()
	if !ok {
		pristine = initialBodies(n, seed)
		spatialSort(pristine)
		bodyCache.Lock()
		if bodyCache.sets == nil {
			bodyCache.sets = make(map[[2]int64][]Body)
		}
		if len(bodyCache.sets) > 16 {
			clear(bodyCache.sets)
		}
		bodyCache.sets[key] = pristine
		bodyCache.Unlock()
	}
	return pristine
}

// directForce is the O(n^2) reference for accuracy tests.
func directForce(bodies []Body, idx int) Vec {
	var acc Vec
	for j := range bodies {
		if j == idx {
			continue
		}
		accumulate(&acc, bodies[idx].Pos, Interactor{bodies[j].Pos, bodies[j].Mass})
	}
	return acc
}

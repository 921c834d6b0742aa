package asp

import (
	"math/rand"
	"sync"
)

// inf is the "no path" distance; small enough that inf+weight cannot
// overflow an int32-sized range, large enough to exceed any real path.
const inf = int32(1 << 29)

// graphCache memoizes pristine distance matrices: every rank of every run
// in a sweep regenerates the identical deterministic graph, and drawing
// ~n^2 variates per rank dominates paper-scale run setup. Entries are
// stored flat (row-major) and never handed out directly; callers get a
// private copy.
var graphCache struct {
	sync.Mutex
	flats map[[2]int64][]int32
}

// generateGraph draws the matrix into a fresh flat row-major slice. The
// rand call sequence is the original cell-by-cell order, so the contents
// are bit-identical to the historical [][]int32 generator.
func generateGraph(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	flat := make([]int32, n*n)
	for i := 0; i < n; i++ {
		row := flat[i*n : (i+1)*n]
		for j := range row {
			switch {
			case i == j:
				row[j] = 0
			case rng.Intn(4) == 0:
				row[j] = int32(rng.Intn(100) + 1)
			default:
				row[j] = inf
			}
		}
	}
	return flat
}

// rowsOver builds row headers sharing one flat backing array, so a matrix
// is a single allocation plus headers and rows are contiguous in memory.
func rowsOver(flat []int32, n int) [][]int32 {
	d := make([][]int32, n)
	for i := range d {
		d[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return d
}

// pristineGraph returns the memoized flat matrix for (n, seed), read-only.
func pristineGraph(n int, seed int64) []int32 {
	key := [2]int64{int64(n), seed}
	graphCache.Lock()
	pristine, ok := graphCache.flats[key]
	graphCache.Unlock()
	if !ok {
		pristine = generateGraph(n, seed)
		graphCache.Lock()
		if graphCache.flats == nil {
			graphCache.flats = make(map[[2]int64][]int32)
		}
		if len(graphCache.flats) > 32 { // sweeps touch a handful of configs
			clear(graphCache.flats)
		}
		graphCache.flats[key] = pristine
		graphCache.Unlock()
	}
	return pristine
}

// randomGraph builds a deterministic directed graph as an adjacency/distance
// matrix: dist[i][j] is the edge weight, inf if absent, 0 on the diagonal.
// Density ~25%, weights 1..100. The rows returned share one flat row-major
// allocation; contents are memoized per (n, seed) and copied out, so each
// caller may mutate freely.
func randomGraph(n int, seed int64) [][]int32 {
	pristine := pristineGraph(n, seed)
	flat := make([]int32, len(pristine))
	copy(flat, pristine)
	return rowsOver(flat, n)
}

// randomGraphRows copies only rows [lo, hi) of the memoized matrix: the
// block a rank owns and mutates. Ranks never touch the rest of the
// replicated matrix (pivot rows arrive by broadcast), so copying the whole
// thing per rank was pure memmove waste at paper scale.
func randomGraphRows(n int, seed int64, lo, hi int) [][]int32 {
	pristine := pristineGraph(n, seed)
	flat := make([]int32, (hi-lo)*n)
	copy(flat, pristine[lo*n:hi*n])
	rows := make([][]int32, hi-lo)
	for i := range rows {
		rows[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}

// relaxRows applies pivot row k to every row of rows: the Floyd-Warshall
// inner update rows[i][j] = min(rows[i][j], rows[i][k]+rowk[j]), one
// relaxRow per row that can reach k. Shared by the distributed relax
// loop, the sequential reference, BenchRowRelaxations and the differential
// tests.
func relaxRows(rows [][]int32, rowk []int32, k int) {
	for _, rowi := range rows {
		if dik := rowi[k]; dik < inf {
			relaxRow(rowi, rowk, dik)
		}
	}
}

// relaxRowScalar is the portable form of the row primitive
// dst[j] = min(dst[j], d+src[j]), and the tail of the vector one. Ranging
// over src lets the compiler drop both bounds checks; the guarded store
// beats a branchless min in scalar code because successful relaxations are
// rare once distances stabilize. It is the only body the race detector
// sees (DESIGN.md §5b).
func relaxRowScalar(dst, src []int32, d int32) {
	for j, s := range src[:len(dst)] {
		if v := d + s; v < dst[j] {
			dst[j] = v
		}
	}
}

// sequentialASP runs the reference Floyd-Warshall algorithm.
func sequentialASP(d [][]int32) {
	for k := range d {
		relaxRows(d, d[k], k)
	}
}

// dijkstra computes single-source shortest paths from src, used as an
// independent oracle in property tests.
func dijkstra(adj [][]int32, src int) []int32 {
	n := len(adj)
	dist := make([]int32, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	for {
		u, best := -1, inf
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		for v := 0; v < n; v++ {
			if w := adj[u][v]; w < inf && dist[u]+w < dist[v] {
				dist[v] = dist[u] + w
			}
		}
	}
}

package tsp

import (
	"math/rand"
	"sync"
)

// cityCache memoizes distance matrices: New and every rank of every run in
// a sweep read the identical deterministic matrix for their (N, Seed), and
// drawing it anew seeded a random source and allocated n+1 slices each
// time.
var cityCache struct {
	sync.Mutex
	matrices map[[2]int64][][]int32
}

// cities returns the deterministic symmetric distance matrix for n cities
// and seed, memoized and shared: callers must not modify it.
func cities(n int, seed int64) [][]int32 {
	key := [2]int64{int64(n), seed}
	cityCache.Lock()
	defer cityCache.Unlock()
	d, ok := cityCache.matrices[key]
	if !ok {
		if cityCache.matrices == nil {
			cityCache.matrices = make(map[[2]int64][][]int32)
		}
		if len(cityCache.matrices) > 32 { // sweeps touch a handful of configs
			clear(cityCache.matrices)
		}
		d = generateCities(n, seed)
		cityCache.matrices[key] = d
	}
	return d
}

// generateCities draws a symmetric distance matrix for n cities placed on
// a grid-free random plane, with integer distances 1..999.
func generateCities(n int, seed int64) [][]int32 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
		ys[i] = rng.Float64() * 1000
	}
	d := make([][]int32, n)
	for i := range d {
		d[i] = make([]int32, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			dist := int32(1 + (dx*dx+dy*dy)/1000)
			d[i][j], d[j][i] = dist, dist
		}
	}
	return d
}

// nearestNeighborBound returns the length of the greedy nearest-neighbour
// tour from city 0: the fixed cutoff bound that makes runs deterministic
// (the paper's technique to get reproducible timings).
func nearestNeighborBound(d [][]int32) int32 {
	n := len(d)
	visited := make([]bool, n)
	visited[0] = true
	cur := 0
	var total int32
	for step := 1; step < n; step++ {
		best, bestDist := -1, int32(0)
		for j := 0; j < n; j++ {
			if !visited[j] && (best < 0 || d[cur][j] < bestDist) {
				best, bestDist = j, d[cur][j]
			}
		}
		visited[best] = true
		total += bestDist
		cur = best
	}
	return total + d[cur][0]
}

// minOut[i] is the cheapest edge leaving city i, used as an admissible
// lower-bound increment during search.
func minOutEdges(d [][]int32) []int32 {
	n := len(d)
	out := make([]int32, n)
	for i := range out {
		best := int32(1 << 30)
		for j := 0; j < n; j++ {
			if j != i && d[i][j] < best {
				best = d[i][j]
			}
		}
		out[i] = best
	}
	return out
}

// job is a partial tour: the first len(path) cities of a candidate tour
// (always starting at city 0) and its length so far.
type job struct {
	path   []int8
	length int32
}

// generateJobs enumerates all partial tours of the given depth in DFS
// order, pruning prefixes that already exceed the cutoff with the
// lower bound. Both queue servers and the sequential reference use it, so
// job identity is globally consistent.
func generateJobs(d [][]int32, minOut []int32, depth int, cutoff int32) []job {
	n := len(d)
	var jobs []job
	path := make([]int8, 1, depth)
	path[0] = 0
	used := make([]bool, n)
	used[0] = true
	// rem is the incremental form of lowerBound: the sum of minOut over
	// cities not yet on the path (see expand for the exact-equality
	// argument).
	rem := remainderBound(minOut, used)
	var rec func(length int32)
	rec = func(length int32) {
		if len(path) == depth {
			jobs = append(jobs, job{append([]int8(nil), path...), length})
			return
		}
		cur := path[len(path)-1]
		for next := 1; next < n; next++ {
			if used[next] {
				continue
			}
			nl := length + d[cur][next]
			if nl+rem >= cutoff {
				continue
			}
			used[next] = true
			rem -= minOut[next]
			path = append(path, int8(next))
			rec(nl)
			path = path[:len(path)-1]
			rem += minOut[next]
			used[next] = false
		}
	}
	rec(0)
	return jobs
}

// remainderBound sums minOut over the cities not yet visited: the value
// lowerBound(minOut, used, next) takes for any unvisited next, computed
// once so the search can maintain it in O(1) per move.
func remainderBound(minOut []int32, used []bool) int32 {
	var rem int32
	for c, u := range used {
		if !u {
			rem += minOut[c]
		}
	}
	return rem
}

// lowerBound sums the cheapest outgoing edge of every city the remaining
// tour must still leave: the current city plus every unvisited city other
// than cur (cur may not be marked used yet by the caller). Admissible
// because every completion leaves each of those cities exactly once. The
// search itself maintains this value incrementally (for an unvisited cur
// it equals the sum of minOut over all unvisited cities, since minOut[cur]
// is counted either way); this O(n) form remains as the specification the
// differential tests pin the incremental bound against.
func lowerBound(minOut []int32, used []bool, cur int) int32 {
	lb := minOut[cur]
	for c, u := range used {
		if !u && c != cur {
			lb += minOut[c]
		}
	}
	return lb
}

// searchScratch holds the per-worker state of a branch-and-bound descent,
// reused across jobs so the steady state of a run allocates nothing.
type searchScratch struct {
	used []bool
	path []int8
}

// newScratch sizes a scratch for n cities.
func newScratch(n int) *searchScratch {
	return &searchScratch{used: make([]bool, n), path: make([]int8, 0, n)}
}

// expand runs depth-first branch and bound from a partial tour, returning
// the best complete tour length below cutoff (or cutoff if none) and the
// number of search nodes visited (the unit of the virtual cost model).
// It allocates fresh scratch; workers in a run use expandWith.
func expand(d [][]int32, minOut []int32, j job, cutoff int32) (best int32, nodes int64) {
	return expandWith(newScratch(len(d)), d, minOut, j, cutoff)
}

// expandWith is expand with caller-owned scratch. The cutoff test uses the
// incrementally maintained remainder bound; all quantities are int32 sums
// of the same terms the O(n) lowerBound adds, so every pruning decision —
// and with it the node count that drives the virtual cost model — is
// bit-identical to the naive form.
func expandWith(s *searchScratch, d [][]int32, minOut []int32, j job, cutoff int32) (best int32, nodes int64) {
	n := len(d)
	used := s.used[:n]
	for i := range used {
		used[i] = false
	}
	for _, c := range j.path {
		used[c] = true
	}
	path := append(s.path[:0], j.path...)
	rem := remainderBound(minOut, used)
	best = cutoff
	var rec func(length int32)
	rec = func(length int32) {
		nodes++
		cur := int(path[len(path)-1])
		if len(path) == n {
			if total := length + d[cur][0]; total < best {
				best = total
			}
			return
		}
		row := d[cur]
		for next := 1; next < n; next++ {
			if used[next] {
				continue
			}
			nl := length + row[next]
			if nl+rem >= best {
				continue
			}
			used[next] = true
			rem -= minOut[next]
			path = append(path, int8(next))
			rec(nl)
			path = path[:len(path)-1]
			rem += minOut[next]
			used[next] = false
		}
	}
	rec(j.length)
	s.path = path[:0]
	return best, nodes
}

// sequentialSolve runs the whole search on one processor: the verification
// reference and the sequential-time baseline.
func sequentialSolve(d [][]int32, depth int) (best int32, nodes int64) {
	minOut := minOutEdges(d)
	cutoff := nearestNeighborBound(d)
	best = cutoff
	scratch := newScratch(len(d))
	for _, j := range generateJobs(d, minOut, depth, cutoff) {
		b, n := expandWith(scratch, d, minOut, j, cutoff)
		nodes += n
		if b < best {
			best = b
		}
	}
	return best, nodes
}

// bruteForce enumerates all tours; usable only for small n, as an oracle in
// property tests.
func bruteForce(d [][]int32) int32 {
	n := len(d)
	perm := make([]int, 0, n)
	used := make([]bool, n)
	used[0] = true
	best := int32(1 << 30)
	var rec func(cur int, length int32)
	rec = func(cur int, length int32) {
		if len(perm) == n-1 {
			if t := length + d[cur][0]; t < best {
				best = t
			}
			return
		}
		for next := 1; next < n; next++ {
			if used[next] {
				continue
			}
			used[next] = true
			perm = append(perm, next)
			rec(next, length+d[cur][next])
			perm = perm[:len(perm)-1]
			used[next] = false
		}
	}
	rec(0, 0)
	return best
}

// Package topology describes two-layer cluster-of-clusters machines such as
// the Distributed ASCI Supercomputer (DAS) used in the paper: a set of
// clusters whose nodes are connected by a fast system-area network
// internally, while the clusters themselves are fully connected by slow
// wide-area links through gateway machines.
package topology

import "fmt"

// Topology is an immutable description of a two-layer machine. Build one
// with New or a preset. Processor ranks are globally numbered 0..N-1 in
// cluster order: cluster 0 holds ranks [0, Sizes[0]), cluster 1 the next
// Sizes[1] ranks, and so on.
type Topology struct {
	sizes     []int // processors per cluster
	total     int
	clusterOf []int  // rank -> cluster
	first     []int  // cluster -> first rank
	ranks     []int  // 0..total-1; RanksIn hands out sub-slices
	name      string // String's result, rendered once by New
}

// New builds a topology from per-cluster processor counts. Every cluster
// must have at least one processor.
func New(sizes []int) (*Topology, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("topology: no clusters")
	}
	t := &Topology{sizes: append([]int(nil), sizes...)}
	for c, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("topology: cluster %d has %d processors", c, n)
		}
		t.first = append(t.first, t.total)
		for i := 0; i < n; i++ {
			t.clusterOf = append(t.clusterOf, c)
			t.ranks = append(t.ranks, t.total+i)
		}
		t.total += n
	}
	t.name = t.render()
	return t, nil
}

// Uniform builds a topology of clusters equal-sized clusters with
// perCluster processors each, the shape used throughout the paper
// (4 clusters of 8 in most experiments).
func Uniform(clusters, perCluster int) (*Topology, error) {
	if clusters <= 0 {
		return nil, fmt.Errorf("topology: %d clusters", clusters)
	}
	sizes := make([]int, clusters)
	for i := range sizes {
		sizes[i] = perCluster
	}
	return New(sizes)
}

// MustUniform is Uniform but panics on error; for tests and presets with
// constant arguments.
func MustUniform(clusters, perCluster int) *Topology {
	t, err := Uniform(clusters, perCluster)
	if err != nil {
		panic(err)
	}
	return t
}

// DAS returns the paper's main experimental configuration: 4 clusters of 8
// processors (the experiments run on the 128-node VU cluster partitioned in
// four, with local ATM links between partitions).
func DAS() *Topology { return MustUniform(4, 8) }

// SingleCluster returns a one-cluster machine of n processors; the paper's
// all-Myrinet baseline.
func SingleCluster(n int) *Topology { return MustUniform(1, n) }

// Clusters returns the number of clusters.
func (t *Topology) Clusters() int { return len(t.sizes) }

// Procs returns the total number of processors.
func (t *Topology) Procs() int { return t.total }

// ClusterSize returns the number of processors in cluster c.
func (t *Topology) ClusterSize(c int) int { return t.sizes[c] }

// ClusterOf returns the cluster that processor rank belongs to.
func (t *Topology) ClusterOf(rank int) int { return t.clusterOf[rank] }

// FirstRank returns the lowest global rank in cluster c. By convention this
// rank doubles as the cluster's gateway/coordinator processor in the
// cluster-aware optimizations.
func (t *Topology) FirstRank(c int) int { return t.first[c] }

// RankInCluster returns rank's index within its own cluster.
func (t *Topology) RankInCluster(rank int) int {
	return rank - t.first[t.clusterOf[rank]]
}

// RanksIn returns the global ranks in cluster c, in increasing order. The
// slice is a view of the topology's own table (coordinator lookups ask for
// it per message) and must not be modified; appending to it copies.
func (t *Topology) RanksIn(c int) []int {
	lo, hi := t.first[c], t.first[c]+t.sizes[c]
	return t.ranks[lo:hi:hi]
}

// SameCluster reports whether two ranks share a cluster (and hence
// communicate over the fast network only).
func (t *Topology) SameCluster(a, b int) bool {
	return t.clusterOf[a] == t.clusterOf[b]
}

// WANLinks returns the number of directed wide-area links in a fully
// connected inter-cluster mesh: C*(C-1).
func (t *Topology) WANLinks() int {
	c := len(t.sizes)
	return c * (c - 1)
}

// String renders the shape, e.g. "4x8" for uniform or "3,24,24,24" otherwise.
// Every run's cache key holds it, so it is rendered once, by New.
func (t *Topology) String() string { return t.name }

func (t *Topology) render() string {
	uniform := true
	for _, s := range t.sizes {
		if s != t.sizes[0] {
			uniform = false
			break
		}
	}
	if uniform {
		return fmt.Sprintf("%dx%d", len(t.sizes), t.sizes[0])
	}
	s := ""
	for i, n := range t.sizes {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(n)
	}
	return s
}

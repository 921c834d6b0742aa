package mpi

import (
	"sort"

	"twolayer/internal/collective"
	"twolayer/internal/par"
)

// Split partitions the communicator like MPI_Comm_split: processes passing
// the same color form a new communicator, ordered by key (ties broken by
// the parent rank). Every member of c must call Split; the exchange runs
// over the network like the real operation (an allgather of color/key
// pairs).
func (c *Comm) Split(color, key int) *Comm {
	// Allgather (color, key) over the parent communicator with a binomial
	// gather to parent rank 0 and a broadcast back.
	type entry struct{ rank, color, key int }
	mine := entry{c.rank, color, key}
	all := make([]entry, 0, c.Size())

	const splitTag = maxUserTag - 1 // reserved within the context
	// Linear gather to communicator rank 0 (split is rare; simplicity wins).
	if c.rank != 0 {
		c.Send(0, splitTag, mine, 24)
		data, _ := c.Recv(0, splitTag)
		all = data.([]entry)
	} else {
		all = append(all, mine)
		for i := 1; i < c.Size(); i++ {
			data, _ := c.Recv(AnySource, splitTag)
			all = append(all, data.(entry))
		}
		sort.Slice(all, func(i, j int) bool { return all[i].rank < all[j].rank })
		for i := 1; i < c.Size(); i++ {
			c.Send(i, splitTag, all, int64(24*len(all)))
		}
	}

	// Deterministic context allocation: every member computes the same new
	// context id from the shared counter.
	ctx := *c.nextCtx
	*c.nextCtx = ctx + maxColors

	var members []entry
	for _, e := range all {
		if e.color == color {
			members = append(members, e)
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].rank < members[j].rank
	})
	group := make([]int, len(members))
	myIdx := -1
	for i, e := range members {
		group[i] = c.group[e.rank]
		if e.rank == c.rank {
			myIdx = i
		}
	}
	// Distinct colors get distinct contexts so sibling communicators cannot
	// cross-talk.
	colorIdx := 0
	seen := map[int]bool{}
	var order []int
	for _, e := range all {
		if !seen[e.color] {
			seen[e.color] = true
			order = append(order, e.color)
		}
	}
	sort.Ints(order)
	for i, col := range order {
		if col == color {
			colorIdx = i
		}
	}
	return &Comm{
		env:     c.env,
		group:   group,
		rank:    myIdx,
		ctx:     ctx + colorIdx,
		world:   c.world,
		nextCtx: c.nextCtx,
	}
}

// maxColors bounds the number of distinct colors one Split may use, for
// context allocation.
const maxColors = 64

// ClusterComm splits the world communicator by cluster — the subgroup MagPIe
// algorithms operate on, exposed for programs that want explicit two-level
// structure.
func (c *Comm) ClusterComm() *Comm {
	return c.Split(c.env.Topology().ClusterOf(c.group[c.rank]), c.rank)
}

// isWorld reports whether the communicator spans all processes in their
// natural order, enabling the optimized collective algorithms.
func (c *Comm) isWorld() bool {
	if len(c.group) != c.env.Size() {
		return false
	}
	for i, g := range c.group {
		if g != i {
			return false
		}
	}
	return true
}

// ---- Collective operations ----
//
// On the world communicator these delegate to the full flat/hierarchical
// algorithm suite; on subcommunicators they use binomial trees over the
// group (a subgroup of a cluster-of-clusters machine has no general
// two-level structure to exploit).

// Barrier blocks until every member has entered it.
func (c *Comm) Barrier() {
	if c.isWorld() {
		c.world.Barrier()
		return
	}
	c.Reduce(0, nil, nil)
	c.Bcast(0, nil)
}

// Bcast distributes root's vector to every member.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	if c.isWorld() {
		return c.world.Bcast(c.group[root], data)
	}
	const tag = maxUserTag - 2
	n := c.Size()
	vr := (c.rank - root + n) % n
	lowbit := par.BinomialLowbit(vr, n)
	if vr != 0 {
		got, _ := c.Recv((vr-lowbit+root)%n, tag)
		data = got.([]float64)
	}
	for mask := lowbit >> 1; mask >= 1; mask >>= 1 {
		if vr+mask < n {
			c.Send((vr+mask+root)%n, tag, data, 16+int64(len(data))*8)
		}
	}
	return data
}

// Reduce combines members' vectors with op at root (nil op/data performs a
// pure synchronization, used by Barrier).
func (c *Comm) Reduce(root int, data []float64, op *collective.Op) []float64 {
	if c.isWorld() && op != nil {
		return c.world.Reduce(c.group[root], data, *op)
	}
	const tag = maxUserTag - 3
	n := c.Size()
	vr := (c.rank - root + n) % n
	lowbit := par.BinomialLowbit(vr, n)
	acc := append([]float64(nil), data...)
	for mask := 1; mask < lowbit && vr+mask < n; mask <<= 1 {
		got, _ := c.Recv((vr+mask+root)%n, tag)
		if op != nil {
			op.Combine(acc, got.([]float64))
		}
	}
	if vr != 0 {
		c.Send((vr-lowbit+root)%n, tag, acc, 16+int64(len(acc))*8)
		return nil
	}
	return acc
}

// Allreduce combines every member's vector and distributes the result.
func (c *Comm) Allreduce(data []float64, op collective.Op) []float64 {
	if c.isWorld() {
		return c.world.Allreduce(data, op)
	}
	acc := c.Reduce(0, data, &op)
	return c.Bcast(0, acc)
}

// Gather collects members' vectors at root, in communicator rank order.
func (c *Comm) Gather(root int, data []float64) [][]float64 {
	if c.isWorld() {
		return c.world.Gatherv(c.group[root], data)
	}
	const tag = maxUserTag - 4
	if c.rank != root {
		c.Send(root, tag, data, 16+int64(len(data))*8)
		return nil
	}
	out := make([][]float64, c.Size())
	out[root] = data
	for i := 0; i < c.Size()-1; i++ {
		got, st := c.Recv(AnySource, tag)
		out[st.Source] = got.([]float64)
	}
	return out
}

// Alltoall exchanges personalized segments (world communicator only, where
// the two-level algorithm applies; subgroup alltoall falls back to direct
// sends).
func (c *Comm) Alltoall(segs [][]float64) [][]float64 {
	if c.isWorld() {
		return c.world.Alltoallv(segs)
	}
	const tag = maxUserTag - 5
	n := c.Size()
	out := make([][]float64, n)
	out[c.rank] = segs[c.rank]
	for i := 1; i < n; i++ {
		d := (c.rank + i) % n
		c.Send(d, tag, segs[d], 16+int64(len(segs[d]))*8)
	}
	for i := 1; i < n; i++ {
		got, st := c.Recv(AnySource, tag)
		out[st.Source] = got.([]float64)
	}
	return out
}

package collective

import "twolayer/internal/par"

// The flat algorithm family: classic topology-unaware implementations in
// the style of MPICH 1.x. Trees and rings are laid out over global ranks,
// so on a two-layer machine the same data item crosses slow wide-area
// links many times.

// vrank maps a rank into the tree rooted at root.
func vrank(rank, root, n int) int { return (rank - root + n) % n }

// rrank inverts vrank.
func rrank(vr, root, n int) int { return (vr + root) % n }

// flatBcast broadcasts over a binomial tree of global ranks rooted at root.
func (c *Comm) flatBcast(tag par.Tag, root int, data []float64) []float64 {
	e := c.e
	n := e.Size()
	vr := vrank(e.Rank(), root, n)
	lowbit := par.BinomialLowbit(vr, n)
	if vr != 0 {
		m := e.RecvFrom(rrank(vr-lowbit, root, n), tag)
		data = m.Data.([]float64)
	}
	for mask := lowbit >> 1; mask >= 1; mask >>= 1 {
		if vr+mask < n {
			e.Send(rrank(vr+mask, root, n), tag, data, vecBytes(len(data)))
		}
	}
	return data
}

// flatGather: every rank sends its contribution straight to the root
// (linear gather, as in early MPICH).
func (c *Comm) flatGather(tag par.Tag, root int, data []float64) [][]float64 {
	e := c.e
	n := e.Size()
	if e.Rank() != root {
		e.Send(root, tag, data, vecBytes(len(data)))
		return nil
	}
	out := make([][]float64, n)
	out[root] = data
	e.RecvN(par.AnySender, tag, n-1, func(m par.Msg) {
		out[m.From] = m.Data.([]float64)
	})
	return out
}

// flatScatter: the root sends each rank its segment directly.
func (c *Comm) flatScatter(tag par.Tag, root int, segs [][]float64) []float64 {
	e := c.e
	if e.Rank() != root {
		return e.RecvFrom(root, tag).Data.([]float64)
	}
	for r, seg := range segs {
		if r == root {
			continue
		}
		e.Send(r, tag, seg, vecBytes(len(seg)))
	}
	return segs[root]
}

// flatAllgather: ring algorithm — in step k each rank forwards the block it
// received in step k-1 to its right neighbour; after n-1 steps everyone has
// every block.
func (c *Comm) flatAllgather(tag par.Tag, data []float64) [][]float64 {
	e := c.e
	n := e.Size()
	r := e.Rank()
	right := (r + 1) % n
	left := (r + n - 1) % n
	out := make([][]float64, n)
	out[r] = data
	cur := data
	curOwner := r
	for step := 0; step < n-1; step++ {
		e.Send(right, tag, ownedBlock{curOwner, cur}, vecBytes(len(cur)))
		m := e.RecvFrom(left, tag)
		b := m.Data.(ownedBlock)
		out[b.owner] = b.data
		cur, curOwner = b.data, b.owner
	}
	return out
}

// ownedBlock tags a vector with the rank that contributed it, for ring and
// forwarding protocols.
type ownedBlock struct {
	owner int
	data  []float64
}

// flatAlltoall: direct pairwise exchange; rank r sends to r+1, r+2, ... so
// the sends spread over destinations instead of hammering rank 0 first.
func (c *Comm) flatAlltoall(tag par.Tag, segs [][]float64) [][]float64 {
	e := c.e
	n := e.Size()
	r := e.Rank()
	out := make([][]float64, n)
	out[r] = segs[r]
	for i := 1; i < n; i++ {
		dst := (r + i) % n
		e.Send(dst, tag, segs[dst], vecBytes(len(segs[dst])))
	}
	e.RecvN(par.AnySender, tag, n-1, func(m par.Msg) {
		out[m.From] = m.Data.([]float64)
	})
	return out
}

// flatReduce combines vectors up a binomial tree to the root.
func (c *Comm) flatReduce(tag par.Tag, root int, data []float64, op Op) []float64 {
	e := c.e
	n := e.Size()
	vr := vrank(e.Rank(), root, n)
	lowbit := par.BinomialLowbit(vr, n)
	acc := clone(data)
	for mask := 1; mask < lowbit && vr+mask < n; mask <<= 1 {
		m := e.RecvFrom(rrank(vr+mask, root, n), tag)
		child := m.Data.([]float64)
		// The partial reduction costs compute time proportional to length.
		e.ComputeUnits(int64(len(child)), combineCostPerElem)
		op.Combine(acc, child)
	}
	if vr != 0 {
		e.Send(rrank(vr-lowbit, root, n), tag, acc, vecBytes(len(acc)))
		return nil
	}
	return acc
}

// flatScan: linear chain — rank i waits for the running prefix from i-1,
// folds in its own vector and passes it on.
func (c *Comm) flatScan(tag par.Tag, data []float64, op Op) []float64 {
	e := c.e
	r := e.Rank()
	acc := clone(data)
	if r > 0 {
		m := e.RecvFrom(r-1, tag)
		prev := m.Data.([]float64)
		e.ComputeUnits(int64(len(prev)), combineCostPerElem)
		op.Combine(acc, prev)
	}
	if r+1 < e.Size() {
		e.Send(r+1, tag, acc, vecBytes(len(acc)))
	}
	return acc
}

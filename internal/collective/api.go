package collective

// This file defines the public surface: the fourteen MPI-1 collective
// operations. Every rank must call the same operations in the same order
// (MPI's usual collective-call contract). Operations return the result on
// the ranks that receive one and nil elsewhere, mirroring MPI semantics.

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() {
	tag := c.nextTag()
	zero := []float64{}
	switch c.style {
	case Flat:
		// Flat barrier: reduce-to-0 then broadcast, both over global
		// binomial trees.
		acc := c.flatReduce(phase(tag, 0), 0, zero, Sum)
		if c.e.Rank() != 0 {
			acc = zero
		}
		c.flatBcast(phase(tag, 1), 0, acc)
	default:
		c.hierReduce(phase(tag, 0), 0, zero, Sum)
		c.hierBcast(phase(tag, 2), 0, zero)
	}
}

// Bcast distributes root's vector to every rank and returns it. Non-root
// ranks may pass nil.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	tag := c.nextTag()
	if c.style == Flat {
		return c.flatBcast(tag, root, data)
	}
	return c.hierBcast(tag, root, data)
}

// Gather collects equal-sized vectors from every rank at root; it returns
// the per-rank blocks at root and nil elsewhere.
func (c *Comm) Gather(root int, data []float64) [][]float64 {
	return c.Gatherv(root, data)
}

// Gatherv is Gather with per-rank sizes allowed to differ.
func (c *Comm) Gatherv(root int, data []float64) [][]float64 {
	tag := c.nextTag()
	if c.style == Flat {
		return c.flatGather(tag, root, data)
	}
	return c.hierGather(tag, root, data)
}

// Scatter distributes segs[r] from root to each rank r and returns the
// local segment. Only root's segs argument is consulted; segments must be
// equal-sized (use Scatterv otherwise).
func (c *Comm) Scatter(root int, segs [][]float64) []float64 {
	if c.e.Rank() == root {
		checkUniform(segs, "Scatter")
	}
	return c.Scatterv(root, segs)
}

// Scatterv is Scatter with ragged segments.
func (c *Comm) Scatterv(root int, segs [][]float64) []float64 {
	tag := c.nextTag()
	if c.style == Flat {
		return c.flatScatter(tag, root, segs)
	}
	return c.hierScatter(tag, root, segs)
}

// Allgather gives every rank every rank's equal-sized vector.
func (c *Comm) Allgather(data []float64) [][]float64 {
	return c.Allgatherv(data)
}

// Allgatherv is Allgather with ragged contributions.
func (c *Comm) Allgatherv(data []float64) [][]float64 {
	if c.style == Flat {
		tag := c.nextTag()
		return c.flatAllgather(tag, data)
	}
	// MagPIe-style: hierarchical gather to a global root, then hierarchical
	// broadcast of the concatenation — each byte crosses each wide-area
	// link exactly twice (in and out), with sizes piggybacked.
	blocks := c.Gatherv(0, data)
	var flat []float64
	sizes := make([]float64, c.e.Size())
	if c.e.Rank() == 0 {
		flat = concat(blocks)
		for i, b := range blocks {
			sizes[i] = float64(len(b))
		}
	}
	sizes = c.Bcast(0, sizes)
	flat = c.Bcast(0, flat)
	lens := make([]int, len(sizes))
	for i, s := range sizes {
		lens[i] = int(s)
	}
	return split(flat, lens)
}

// Alltoall performs a personalized all-to-all exchange: segs[d] goes to
// rank d; the result's entry j is the segment received from rank j.
// Segments must be equal-sized (use Alltoallv otherwise).
func (c *Comm) Alltoall(segs [][]float64) [][]float64 {
	checkUniform(segs, "Alltoall")
	return c.Alltoallv(segs)
}

// Alltoallv is Alltoall with ragged segments.
func (c *Comm) Alltoallv(segs [][]float64) [][]float64 {
	if len(segs) != c.e.Size() {
		panic("collective: Alltoallv needs one segment per rank")
	}
	tag := c.nextTag()
	if c.style == Flat {
		return c.flatAlltoall(tag, segs)
	}
	return c.hierAlltoall(tag, segs)
}

// Reduce combines every rank's vector with op and returns the result at
// root (nil elsewhere).
func (c *Comm) Reduce(root int, data []float64, op Op) []float64 {
	tag := c.nextTag()
	if c.style == Flat {
		return c.flatReduce(tag, root, data, op)
	}
	return c.hierReduce(tag, root, data, op)
}

// Allreduce combines every rank's vector with op and returns the result on
// every rank.
func (c *Comm) Allreduce(data []float64, op Op) []float64 {
	acc := c.Reduce(0, data, op)
	return c.Bcast(0, acc)
}

// ReduceScatter combines every rank's full-length vector with op, then
// scatters the result: rank r receives counts[r] elements, in rank order.
func (c *Comm) ReduceScatter(data []float64, counts []int, op Op) []float64 {
	if len(counts) != c.e.Size() {
		panic("collective: ReduceScatter needs one count per rank")
	}
	acc := c.Reduce(0, data, op)
	var segs [][]float64
	if c.e.Rank() == 0 {
		segs = split(acc, counts)
	}
	return c.Scatterv(0, segs)
}

// Scan computes the inclusive prefix reduction: rank r receives the
// combination of the vectors of ranks 0..r.
func (c *Comm) Scan(data []float64, op Op) []float64 {
	tag := c.nextTag()
	if c.style == Flat {
		return c.flatScan(tag, data, op)
	}
	return c.hierScan(tag, data, op)
}

// OpNames lists the fourteen collective operations, for harness output.
var OpNames = []string{
	"Barrier", "Bcast", "Gather", "Gatherv", "Scatter", "Scatterv",
	"Allgather", "Allgatherv", "Alltoall", "Alltoallv",
	"Reduce", "Allreduce", "ReduceScatter", "Scan",
}

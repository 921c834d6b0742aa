package collective

import "twolayer/internal/par"

// The hierarchical algorithm family, modelled on MagPIe: collectives are
// split into an intra-cluster part over the fast network and an
// inter-cluster part in which every data item crosses each wide-area link
// at most once, through one designated coordinator per cluster.

// coord returns the coordinator of cluster cl for an operation rooted at
// root: the root itself acts as its own cluster's coordinator.
func (c *Comm) coord(cl, root int) int {
	if c.e.Topology().ClusterOf(root) == cl {
		return root
	}
	return c.e.Coordinator(cl)
}

// myCoord returns the calling rank's cluster coordinator for the operation.
func (c *Comm) myCoord(root int) int { return c.coord(c.e.Cluster(), root) }

// intraBcast broadcasts within the caller's cluster over a binomial tree of
// cluster-local indices rooted at the given global rank (which must be in
// the cluster).
func (c *Comm) intraBcast(tag par.Tag, localRoot int, data []float64) []float64 {
	e := c.e
	peers := e.ClusterPeers()
	n := len(peers)
	first := peers[0]
	vr := vrank(e.Rank()-first, localRoot-first, n)
	lowbit := par.BinomialLowbit(vr, n)
	if vr != 0 {
		m := e.RecvFrom(first+rrank(vr-lowbit, localRoot-first, n), tag)
		data = m.Data.([]float64)
	}
	for mask := lowbit >> 1; mask >= 1; mask >>= 1 {
		if vr+mask < n {
			e.Send(first+rrank(vr+mask, localRoot-first, n), tag, data, vecBytes(len(data)))
		}
	}
	return data
}

// intraReduce combines vectors up a binomial tree within the cluster to the
// given local root; returns the combined vector there and nil elsewhere.
func (c *Comm) intraReduce(tag par.Tag, localRoot int, data []float64, op Op) []float64 {
	e := c.e
	peers := e.ClusterPeers()
	n := len(peers)
	first := peers[0]
	vr := vrank(e.Rank()-first, localRoot-first, n)
	lowbit := par.BinomialLowbit(vr, n)
	acc := clone(data)
	for mask := 1; mask < lowbit && vr+mask < n; mask <<= 1 {
		m := e.RecvFrom(first+rrank(vr+mask, localRoot-first, n), tag)
		child := m.Data.([]float64)
		e.ComputeUnits(int64(len(child)), combineCostPerElem)
		op.Combine(acc, child)
	}
	if vr != 0 {
		e.Send(first+rrank(vr-lowbit, localRoot-first, n), tag, acc, vecBytes(len(acc)))
		return nil
	}
	return acc
}

// hierBcast: root sends once to each remote cluster's coordinator over the
// wide area, then each coordinator broadcasts locally.
func (c *Comm) hierBcast(tag par.Tag, root int, data []float64) []float64 {
	e := c.e
	wan, local := phase(tag, 0), phase(tag, 1)
	mc := c.myCoord(root)
	if e.Rank() == root {
		for cl := 0; cl < e.Clusters(); cl++ {
			if cl == e.Cluster() {
				continue
			}
			e.Send(c.coord(cl, root), wan, data, vecBytes(len(data)))
		}
	} else if e.Rank() == mc {
		data = e.RecvFrom(root, wan).Data.([]float64)
	}
	return c.intraBcast(local, mc, data)
}

// hierReduce: reduce within each cluster to its coordinator, then each
// remote coordinator sends one partial result to the root over the wide
// area.
func (c *Comm) hierReduce(tag par.Tag, root int, data []float64, op Op) []float64 {
	e := c.e
	local, wan := phase(tag, 0), phase(tag, 1)
	mc := c.myCoord(root)
	partial := c.intraReduce(local, mc, data, op)
	if e.Rank() != mc {
		return nil
	}
	if e.Rank() != root {
		e.Send(root, wan, partial, vecBytes(len(partial)))
		return nil
	}
	acc := partial
	for cl := 0; cl < e.Clusters(); cl++ {
		if cl == e.Cluster() {
			continue
		}
		m := e.RecvFrom(c.coord(cl, root), wan)
		part := m.Data.([]float64)
		e.ComputeUnits(int64(len(part)), combineCostPerElem)
		op.Combine(acc, part)
	}
	return acc
}

// hierGather: cluster members send to their coordinator over the fast
// network; each remote coordinator forwards its cluster's blocks to the
// root in a single combined wide-area message.
func (c *Comm) hierGather(tag par.Tag, root int, data []float64) [][]float64 {
	e := c.e
	local, wan := phase(tag, 0), phase(tag, 1)
	mc := c.myCoord(root)
	n := e.Size()

	if e.Rank() != mc {
		e.Send(mc, local, data, vecBytes(len(data)))
		return nil
	}
	// Coordinator: collect the cluster's blocks.
	blocks := make(map[int][]float64, len(e.ClusterPeers()))
	blocks[e.Rank()] = data
	e.RecvN(par.AnySender, local, len(e.ClusterPeers())-1, func(m par.Msg) {
		blocks[m.From] = m.Data.([]float64)
	})
	if e.Rank() != root {
		// Forward the whole cluster's data in one wide-area message.
		batch := make([]ownedBlock, 0, len(blocks))
		total := 0
		for _, r := range e.ClusterPeers() {
			batch = append(batch, ownedBlock{r, blocks[r]})
			total += len(blocks[r])
		}
		e.Send(root, wan, batch, vecBytes(total))
		return nil
	}
	// Root: own cluster's blocks plus one batch per remote cluster.
	out := make([][]float64, n)
	for r, b := range blocks {
		out[r] = b
	}
	for cl := 0; cl < e.Clusters(); cl++ {
		if cl == e.Cluster() {
			continue
		}
		m := e.RecvFrom(c.coord(cl, root), wan)
		for _, b := range m.Data.([]ownedBlock) {
			out[b.owner] = b.data
		}
	}
	return out
}

// hierScatter: the root sends each remote cluster's segments to its
// coordinator as one combined wide-area message; coordinators distribute
// locally.
func (c *Comm) hierScatter(tag par.Tag, root int, segs [][]float64) []float64 {
	e := c.e
	wan, local := phase(tag, 0), phase(tag, 1)
	mc := c.myCoord(root)
	topo := e.Topology()

	if e.Rank() == root {
		for cl := 0; cl < e.Clusters(); cl++ {
			if cl == e.Cluster() {
				continue
			}
			batch := make([]ownedBlock, 0, topo.ClusterSize(cl))
			total := 0
			for _, r := range topo.RanksIn(cl) {
				batch = append(batch, ownedBlock{r, segs[r]})
				total += len(segs[r])
			}
			e.Send(c.coord(cl, root), wan, batch, vecBytes(total))
		}
		for _, r := range e.ClusterPeers() {
			if r == root {
				continue
			}
			e.Send(r, local, segs[r], vecBytes(len(segs[r])))
		}
		return segs[root]
	}
	if e.Rank() == mc {
		// Coordinator of a remote cluster: unpack and distribute.
		m := e.RecvFrom(root, wan)
		var own []float64
		for _, b := range m.Data.([]ownedBlock) {
			if b.owner == e.Rank() {
				own = b.data
				continue
			}
			e.Send(b.owner, local, b.data, vecBytes(len(b.data)))
		}
		return own
	}
	// Plain member: segment arrives from the root (same cluster) or from
	// the coordinator (remote cluster).
	src := root
	if !e.SameCluster(root) {
		src = mc
	}
	return e.RecvFrom(src, local).Data.([]float64)
}

// hierAlltoall: intra-cluster segments travel directly; for each remote
// cluster, a sender combines all segments destined there into one wide-area
// message to that cluster's coordinator, which redistributes locally. Every
// byte crosses the wide area exactly once, and the number of wide-area
// messages per cluster pair drops from |src|*|dst| to |src|.
func (c *Comm) hierAlltoall(tag par.Tag, segs [][]float64) [][]float64 {
	e := c.e
	direct, wan, fwd := phase(tag, 0), phase(tag, 1), phase(tag, 2)
	topo := e.Topology()
	n := e.Size()
	r := e.Rank()
	out := make([][]float64, n)
	out[r] = segs[r]

	// Sends: direct within the cluster, combined per remote cluster.
	for _, p := range e.ClusterPeers() {
		if p == r {
			continue
		}
		e.Send(p, direct, ownedBlock{r, segs[p]}, vecBytes(len(segs[p])))
	}
	for cl := 0; cl < e.Clusters(); cl++ {
		if cl == e.Cluster() {
			continue
		}
		members := topo.RanksIn(cl)
		batch := make([]ownedBlock, 0, len(members))
		total := 0
		for _, d := range members {
			batch = append(batch, ownedBlock{d, segs[d]})
			total += len(segs[d])
		}
		e.Send(topo.FirstRank(cl), wan, forwardBatch{src: r, blocks: batch}, vecBytes(total))
	}

	// Receives. All sends above are asynchronous, so the phases below can
	// run in a fixed order on every rank without deadlock. The coordinator
	// unpacks wide-area batches first so its forwards overlap with the
	// direct intra-cluster exchanges still in flight.
	expectFwd := n - len(e.ClusterPeers()) // one segment from every remote rank
	if r == topo.FirstRank(e.Cluster()) {
		for i := 0; i < n-len(e.ClusterPeers()); i++ { // one batch per remote rank
			fb := e.Recv(wan).Data.(forwardBatch)
			for _, b := range fb.blocks {
				if b.owner == r {
					out[fb.src] = b.data
					expectFwd--
					continue
				}
				e.Send(b.owner, fwd, ownedBlock{fb.src, b.data}, vecBytes(len(b.data)))
			}
		}
	}
	place := func(m par.Msg) {
		b := m.Data.(ownedBlock)
		out[b.owner] = b.data
	}
	e.RecvN(par.AnySender, direct, len(e.ClusterPeers())-1, place)
	e.RecvN(par.AnySender, fwd, expectFwd, place)
	return out
}

// forwardBatch carries one sender's segments for every member of a cluster.
type forwardBatch struct {
	src    int
	blocks []ownedBlock
}

// hierScan: each cluster scans locally, coordinators chain cluster totals
// across the wide area (each total crosses each link once), then every rank
// folds its cluster's offset into its local prefix.
func (c *Comm) hierScan(tag par.Tag, data []float64, op Op) []float64 {
	e := c.e
	local, chainT, offT := phase(tag, 0), phase(tag, 1), phase(tag, 2)
	peers := e.ClusterPeers()
	r := e.Rank()
	cl := e.Cluster()
	first := peers[0]
	last := peers[len(peers)-1]

	// Intra-cluster linear scan in rank order.
	acc := clone(data)
	if r != first {
		prev := e.RecvFrom(r-1, local).Data.([]float64)
		e.ComputeUnits(int64(len(prev)), combineCostPerElem)
		op.Combine(acc, prev)
	}
	if r != last {
		e.Send(r+1, local, acc, vecBytes(len(acc)))
	}

	// The last rank of the cluster holds the cluster total; it chains the
	// running inter-cluster prefix to the next cluster's last rank.
	topo := e.Topology()
	var offset []float64
	if r == last {
		var runningPrefix []float64 // exclusive prefix over earlier clusters
		if cl > 0 {
			prevLast := topo.FirstRank(cl-1) + topo.ClusterSize(cl-1) - 1
			runningPrefix = e.RecvFrom(prevLast, chainT).Data.([]float64)
		}
		if cl+1 < e.Clusters() {
			total := clone(acc) // local total already includes cluster scan
			if runningPrefix != nil {
				e.ComputeUnits(int64(len(total)), combineCostPerElem)
				op.Combine(total, runningPrefix)
			}
			nextLast := topo.FirstRank(cl+1) + topo.ClusterSize(cl+1) - 1
			e.Send(nextLast, chainT, total, vecBytes(len(total)))
		}
		offset = runningPrefix
		// Distribute the cluster offset to local peers.
		for _, p := range peers {
			if p == r {
				continue
			}
			e.Send(p, offT, offset, vecBytes(len(offset)))
		}
	} else {
		offset = e.RecvFrom(last, offT).Data.([]float64)
	}
	if offset != nil {
		e.ComputeUnits(int64(len(offset)), combineCostPerElem)
		op.Combine(acc, offset)
	}
	return acc
}

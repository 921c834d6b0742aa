package analytic

import "twolayer/internal/sim"

// The lane kernels: one function per lane-loop kind of the batched walk
// (batchWalk32), each applying the scalar walk's arithmetic to all
// BatchLanes lanes of its rows. On amd64 each has an AVX2 body
// (lanes_amd64.s), which the walk calls when the start-up CPU-feature
// probe set useAVX2; the Go bodies below are the fallback everywhere else
// (CPUs without AVX2, other architectures, -tags purego, -race) and the
// oracle the vector bodies are tested against.
// Both compute the same int64 values: VPADDQ wraps exactly as Go int64
// addition does, and a compare-and-blend max picks the same value as max().
//
// Rows may alias where the walk lets them: dr is re itself for an unfused
// send, and a fused receive's slot may be the send's own delivery slot
// (buildSlots frees a message's slot at its last receive, so the next send
// can take it). Every kernel therefore reads all of a lane's inputs before
// it writes any of that lane's outputs.

// laneCols are the per-lane parameter columns the send kernels read, laid
// out back to back so one pointer reaches all four (the assembly addresses
// them by fixed offsets). ilWanPer = intraLat + wanPer and ilRecv =
// intraLat + recvOv fold sums the walk would otherwise re-add per message;
// integer addition is associative, so every lane's result is bit-identical.
type laneCols struct {
	sendOv, ilRecv, ilWanPer, wanLat laneRow
}

// spanAddGo advances a rank's clock by a compute span.
func spanAddGo(re *laneRow, d sim.Time) {
	for lane := range re {
		re[lane] += d
	}
}

// recvMergeGo merges the delivery rows of slots into a rank's clock, in
// order: a whole receive run (or one receive) per call.
func recvMergeGo(re *laneRow, delivered []laneRow, slots []int32) {
	_ = re[0]
	for _, sl := range slots {
		del := &delivered[sl]
		for lane := range re {
			re[lane] = max(re[lane], del[lane])
		}
	}
}

// sendLocalGo is an intra-cluster send: the sender's ready time (after
// merging dr, a fused receive's delivery row or re itself), then the NIC,
// then the delivery.
func sendLocalGo(re, dr, del, nic, tx *laneRow, c *laneCols) {
	_, _, _, _, _, _ = re[0], dr[0], del[0], nic[0], tx[0], c.sendOv[0] // nil checks, once
	for lane := range re {
		ready := max(re[lane], dr[lane]) + c.sendOv[lane]
		re[lane] = ready
		nicDone := max(ready, nic[lane]) + tx[lane]
		nic[lane] = nicDone
		del[lane] = nicDone + c.ilRecv[lane]
	}
}

// sendWANGo is a wide-area send: sendLocalGo's NIC leg, then the directed
// cluster-pair pipe (wtx carries the lane's message RTT charge), the
// wide-area latency and the destination gateway.
func sendWANGo(re, dr, del, nic, wan, gw, tx, wtx *laneRow, c *laneCols) {
	_, _, _, _, _, _, _, _, _ = re[0], dr[0], del[0], nic[0], wan[0], gw[0], tx[0], wtx[0], c.sendOv[0]
	for lane := range re {
		ready := max(re[lane], dr[lane]) + c.sendOv[lane]
		re[lane] = ready
		nicDone := max(ready, nic[lane]) + tx[lane]
		nic[lane] = nicDone
		wanDone := max(nicDone+c.ilWanPer[lane], wan[lane]) + wtx[lane]
		wan[lane] = wanDone
		gwDone := max(wanDone+c.wanLat[lane], gw[lane]) + tx[lane]
		gw[lane] = gwDone
		del[lane] = gwDone + c.ilRecv[lane]
	}
}

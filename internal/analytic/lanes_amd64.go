//go:build amd64 && !purego && !race

package analytic

import (
	"twolayer/internal/cpufeat"
	"twolayer/internal/sim"
)

// useAVX2 is the start-up probe's answer (internal/cpufeat). Each lane row
// is eight YMM vectors of four int64 lanes.
var useAVX2 = cpufeat.AVX2

//go:noescape
func spanAddAVX2(re *laneRow, d sim.Time)

// recvMergeAVX2 keeps the rank row in registers across the whole run. The
// slots must index delivered; buildProg guarantees it.
//
//go:noescape
func recvMergeAVX2(re *laneRow, delivered []laneRow, slots []int32)

//go:noescape
func sendLocalAVX2(re, dr, del, nic, tx *laneRow, c *laneCols)

//go:noescape
func sendWANAVX2(re, dr, del, nic, wan, gw, tx, wtx *laneRow, c *laneCols)

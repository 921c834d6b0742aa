//go:build amd64 && !purego && !race

package asp

import "twolayer/internal/cpufeat"

// useAVX2 is the start-up probe's answer (internal/cpufeat).
var useAVX2 = cpufeat.AVX2

// relaxRowAVX2 applies dst[j] = min(dst[j], d+src[j]) to the first
// len(dst)&^7 elements, eight int32 lanes at a time with an unconditional
// store. It needs len(src) >= len(dst); dst and src may be the same row.
//
//go:noescape
func relaxRowAVX2(dst, src []int32, d int32)

// relaxRow is dst[j] = min(dst[j], d+src[j]) over len(dst) elements. Int32
// add and signed min are what the scalar body computes, so every lane is
// bit-identical to it; storing unchanged values back is safe because dst is
// a row only this rank writes, and src is dst itself or its owner's live row,
// which the owner cannot write while this rank runs (a run is one sequential
// kernel).
func relaxRow(dst, src []int32, d int32) {
	src = src[:len(dst)]
	tail := 0
	if useAVX2 {
		relaxRowAVX2(dst, src, d)
		tail = len(dst) &^ 7
	}
	relaxRowScalar(dst[tail:], src[tail:], d)
}

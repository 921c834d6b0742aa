//go:build amd64 && !purego && !race

package asp

import (
	"testing"

	"twolayer/internal/cpufeat"
)

// TestVectorPathSelected fails when the kernel lists avx2 for this CPU (it
// does so only when the OS also saves the YMM state) and the start-up probe
// still chose the scalar body: a wrong probe would otherwise be a silent
// 30 % slowdown of the paper-scale sweep.
func TestVectorPathSelected(t *testing.T) {
	listed, err := cpufeat.CPUInfoAVX2()
	if err != nil {
		t.Skipf("no independent CPU feature list: %v", err)
	}
	if listed != useAVX2 {
		t.Fatalf("/proc/cpuinfo lists avx2: %v, but useAVX2 = %v", listed, useAVX2)
	}
}

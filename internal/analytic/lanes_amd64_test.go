//go:build amd64 && !purego && !race

package analytic

import (
	"testing"

	"twolayer/internal/cpufeat"
)

// vectorLanes reports whether the AVX2 lane kernels run here.
func vectorLanes() bool { return cpufeat.AVX2 }

// setVectorLanes switches the walk to the vector kernels (when the CPU has
// them) or to the Go bodies, and returns the function that switches back.
func setVectorLanes(on bool) (restore func()) {
	old := useAVX2
	useAVX2 = on && cpufeat.AVX2
	return func() { useAVX2 = old }
}

// TestVectorPathSelected fails when the kernel lists avx2 for this CPU and
// the start-up probe still chose the Go lane loops: a wrong probe would
// otherwise be a silent 2-3x slowdown of every frozen grid.
func TestVectorPathSelected(t *testing.T) {
	listed, err := cpufeat.CPUInfoAVX2()
	if err != nil {
		t.Skipf("no independent CPU feature list: %v", err)
	}
	if listed != useAVX2 {
		t.Fatalf("/proc/cpuinfo lists avx2: %v, but useAVX2 = %v", listed, useAVX2)
	}
}

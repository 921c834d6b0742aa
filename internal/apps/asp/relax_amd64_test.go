//go:build amd64 && !purego && !race

package asp

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestVectorPathSelected fails when the kernel lists avx2 for this CPU (it
// does so only when the OS also saves the YMM state) and the start-up probe
// still chose the scalar body: a wrong probe would otherwise be a silent
// 30 % slowdown of the paper-scale sweep.
func TestVectorPathSelected(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no independent CPU feature list: %v", err)
	}
	listed := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed = slices.Contains(strings.Fields(flags), "avx2")
			break
		}
	}
	if listed != useAVX2 {
		t.Fatalf("/proc/cpuinfo lists avx2: %v, but useAVX2 = %v", listed, useAVX2)
	}
}

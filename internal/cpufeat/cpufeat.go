// Package cpufeat is the one CPU-feature probe of the module: the vector
// kernels (ASP's row relaxation, the analytic batch walk's lane loops) pick
// their AVX2 body or their portable Go body from it, once, at start-up.
package cpufeat

import (
	"os"
	"slices"
	"strings"
)

// CPUInfoAVX2 reports whether the kernel's /proc/cpuinfo lists avx2 for
// this CPU (it does so only when the OS also saves the YMM state). It is
// the independent cross-check the kernel packages' tests hold AVX2 to: a
// probe that wrongly answers no is otherwise a silent slowdown, not a
// failure.
func CPUInfoAVX2() (bool, error) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false, err
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			return slices.Contains(strings.Fields(flags), "avx2"), nil
		}
	}
	return false, nil
}

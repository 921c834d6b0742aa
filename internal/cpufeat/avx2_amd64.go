//go:build amd64 && !purego

package cpufeat

// AVX2 is decided once at start-up: CPUID reports AVX2 and XGETBV reports
// that the OS saves the YMM registers.
var AVX2 = hasAVX2()

// hasAVX2 probes CPUID leaves 1 and 7 and XCR0.
func hasAVX2() bool

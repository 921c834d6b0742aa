//go:build !amd64 || purego || race

package asp

// relaxRow is the Go loop wherever the assembly is not built: other
// architectures, purego, and race builds (assembly is invisible to the race
// detector, and the pivot-row sharing tests depend on relaxRow being
// instrumented).
func relaxRow(dst, src []int32, d int32) { relaxRowScalar(dst, src, d) }

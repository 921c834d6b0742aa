//go:build !amd64 || purego || race

package analytic

// vectorLanes reports whether vector lane kernels run here: never in this
// build.
func vectorLanes() bool { return false }

// setVectorLanes is a no-op: the Go bodies are the only lane kernels.
func setVectorLanes(bool) (restore func()) { return func() {} }

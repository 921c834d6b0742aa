//go:build !amd64 || purego || race

package analytic

import "twolayer/internal/sim"

// Wherever the assembly is not built — other architectures, purego, and
// race builds (assembly is invisible to the race detector, and the
// clone-sharding tests depend on the walk being instrumented) — the Go
// bodies are the only lane kernels: useAVX2 is a false constant, so the
// compiler drops every call to the vector names below.
const useAVX2 = false

func spanAddAVX2(*laneRow, sim.Time) { panic(noVector) }

func recvMergeAVX2(*laneRow, []laneRow, []int32) { panic(noVector) }

func sendLocalAVX2(_, _, _, _, _ *laneRow, _ *laneCols) { panic(noVector) }

func sendWANAVX2(_, _, _, _, _, _, _, _ *laneRow, _ *laneCols) { panic(noVector) }

const noVector = "analytic: no AVX2 lane kernels in this build"

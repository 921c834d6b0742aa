package analytic

// Hooks for the external benchmark in walk_bench_test.go, which records a
// real application graph through internal/core (a package that imports
// this one, so the benchmark cannot live inside it).
var (
	VectorLanes    = vectorLanes
	SetVectorLanes = setVectorLanes
)

// Walk re-runs the batched walk over the whole program on the lane state
// the last SolveBatch left behind: the walk alone, without loading
// parameters, clearing lanes or reducing the result.
func (e *Eval) Walk() { e.batchWalk32(e.batch) }

package cliutil

import (
	"flag"
	"fmt"

	"twolayer/internal/core"
)

// RegisterWorkers installs the shared -workers flag on the process flag
// set: the in-run worker count for cluster-parallel (PDES) execution.
// Parse flags, then pass the value to ApplyWorkers.
func RegisterWorkers() *int {
	return flag.Int("workers", -1,
		"in-run workers for cluster-parallel execution: -1 = budgeted (one "+
			"sweep cell per core, each on the sequential kernel; multi-hop "+
			"cells run their windows on the cell's own goroutine), 0 = "+
			"sequential, N = N window workers per cell, each cell holding N "+
			"of the machine's cores")
}

// ApplyWorkers validates the parsed -workers value and installs it as the
// process-wide in-run default (core.SetDefaultWorkers). -1 leaves
// parallelism to core's budget of one slot per CPU: sweeps keep that many
// cells in flight and no cell runs window workers, which is what finishes a
// sweep soonest (EXPERIMENTS.md, "Engine choice") and therefore the same
// default as 0, the explicit request for the sequential kernel. Positive
// values force the windowed engine at that many workers per cell. Anything
// below -1 is flag misuse — the caller maps the error to ExitUsage. Results
// never depend on the value (the parallel engine is bit-identical to
// sequential at any worker count); only wall-clock time and scheduling do,
// which is also why the persistent run cache ignores it.
func ApplyWorkers(n int) error {
	if n < -1 {
		return fmt.Errorf("-workers must be -1 (budgeted), 0 (sequential) or positive, got %d", n)
	}
	core.SetDefaultWorkers(n) // clamps -1 to 0
	return nil
}

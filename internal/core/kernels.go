package core

import (
	"fmt"

	"twolayer/internal/collective"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/sim"
	"twolayer/internal/stats"
	"twolayer/internal/topology"
)

// Section 6 of the paper reports that, beyond the 10x wins on isolated
// collective operations, whole "application kernels improve by up to a
// factor of 4" when MagPIe replaces MPICH underneath an unchanged MPI
// program. This file reproduces that measurement with MPI-style kernels
// written against the collective communicator; its style is their only
// topology awareness.

// KernelResult compares one MPI kernel under flat and hierarchical
// collectives.
type KernelResult struct {
	Kernel  string
	Flat    sim.Time
	Hier    sim.Time
	Speedup float64
}

// mpiKernel is an MPI-style program whose only communication is the
// collective calls on c; the same code runs under both libraries, which
// differ only in c's style.
type mpiKernel struct {
	name string
	job  func(c *collective.Comm, e *par.Env)
}

// kernelSuite returns small kernels in the communication styles of the
// paper's applications, each using collective.Comm's Bcast, Allreduce,
// Alltoall or Barrier: an ASP-like iteration (broadcast per pivot), a
// Water-like reduction phase, and a BSP-like step (alltoall + barrier).
func kernelSuite() []mpiKernel {
	return []mpiKernel{
		{
			name: "asp-kernel",
			job: func(c *collective.Comm, e *par.Env) {
				// Per pivot: owner broadcasts a row, everyone relaxes.
				const pivots = 24
				const rowLen = 768 // ~6 KByte rows, as in ASP
				row := make([]float64, rowLen)
				for k := 0; k < pivots; k++ {
					root := k % e.Size()
					c.Bcast(root, row)
					e.ComputeUnits(rowLen, 4*sim.Microsecond)
				}
			},
		},
		{
			name: "reduce-kernel",
			job: func(c *collective.Comm, e *par.Env) {
				// Per step: local force computation, then a global vector
				// reduction (Water's energy/force pattern).
				const steps = 12
				vec := make([]float64, 512)
				for k := 0; k < steps; k++ {
					e.ComputeUnits(int64(len(vec)), 20*sim.Microsecond)
					c.Allreduce(vec, collective.Sum)
				}
			},
		},
		{
			name: "bsp-kernel",
			job: func(c *collective.Comm, e *par.Env) {
				// Per superstep: personalized exchange plus a barrier
				// (Barnes-Hut's structure).
				const supersteps = 8
				segs := make([][]float64, e.Size())
				for i := range segs {
					segs[i] = make([]float64, 32)
				}
				for k := 0; k < supersteps; k++ {
					c.Alltoall(segs)
					e.ComputeUnits(int64(32*e.Size()), 2*sim.Microsecond)
					c.Barrier()
				}
			},
		},
	}
}

// MPIKernelComparison measures every kernel under both collective
// libraries on the given machine and wide-area setting.
func MPIKernelComparison(topo *topology.Topology, params network.Params) ([]KernelResult, error) {
	suite := kernelSuite()
	results := make([]KernelResult, len(suite))
	err := forEach(len(suite), func(i int) error {
		k := suite[i]
		times := map[collective.Style]sim.Time{}
		for _, style := range []collective.Style{collective.Flat, collective.Hierarchical} {
			res, err := par.Run(topo, params, DefaultSeed, func(e *par.Env) {
				k.job(collective.New(e, style), e)
			})
			if err != nil {
				return fmt.Errorf("core: kernel %s (%v): %w", k.name, style, err)
			}
			times[style] = res.Elapsed
		}
		results[i] = KernelResult{
			Kernel:  k.name,
			Flat:    times[collective.Flat],
			Hier:    times[collective.Hierarchical],
			Speedup: float64(times[collective.Flat]) / float64(times[collective.Hierarchical]),
		}
		return nil
	})
	return results, err
}

// RenderKernels formats the comparison.
func RenderKernels(results []KernelResult) string {
	t := stats.NewTable("Kernel", "Flat library", "Hierarchical library", "Speedup")
	for _, r := range results {
		t.AddRow(r.Kernel, r.Flat.String(), r.Hier.String(), fmt.Sprintf("%.1fx", r.Speedup))
	}
	return t.String()
}

// Command collectives compares the flat (MPICH-like) and hierarchical
// (MagPIe-like) implementations of the fourteen MPI-1 collective operations
// on the simulated two-layer interconnect — the Section 6 experiment.
//
// Example:
//
//	collectives -latency 10ms -bandwidth 1.0 -elems 64 -clusters 8 -percluster 4
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"twolayer/internal/cliutil"
	"twolayer/internal/core"
	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		latency    = flag.Duration("latency", 10*time.Millisecond, "one-way wide-area latency")
		bandwidth  = flag.Float64("bandwidth", 1.0, "wide-area bandwidth in MByte/s")
		elems      = flag.Int("elems", 64, "vector length per rank (8 bytes/element)")
		clusters   = flag.Int("clusters", 4, "number of clusters")
		perCluster = flag.Int("percluster", 8, "processors per cluster")
		kernels    = flag.Bool("kernels", false, "also compare whole MPI kernels under both libraries")
	)
	flag.Parse()
	if err := cliutil.CheckWANSpeed(*latency, *bandwidth); err != nil {
		return usage(err)
	}

	topo, err := topology.Uniform(*clusters, *perCluster)
	if err != nil {
		return usage(err)
	}
	params := network.DefaultParams().WithWAN(sim.Time((*latency).Nanoseconds()), *bandwidth*1e6)
	results, err := core.CollectiveComparison(topo, params, *elems, 1)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("MPI-1 collective operations on %s, WAN %v / %.3g MByte/s, %d elements:\n\n",
		topo, params.WANLatency, *bandwidth, *elems)
	fmt.Println(core.RenderCollectives(results))
	fmt.Println("flat = topology-unaware trees (MPICH-era algorithms);")
	fmt.Println("hierarchical = wide-area-optimal two-level algorithms (MagPIe).")
	if *kernels {
		kr, err := core.MPIKernelComparison(topo, params)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Println("Unchanged MPI kernels under both libraries (Section 6's")
		fmt.Println(`"application kernels improve by up to a factor of 4"):`)
		fmt.Println(core.RenderKernels(kr))
	}
	return cliutil.ExitOK
}

func usage(err error) int {
	fmt.Fprintln(os.Stderr, "collectives:", err)
	return cliutil.ExitUsage
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "collectives:", err)
	os.Exit(1)
}

// Command micro characterizes the simulated interconnect with the synthetic
// patterns of Section 5.2's analysis: the null-RPC (pure latency), a
// one-way stream (pure bandwidth), the personalized all-to-all (bisection
// bandwidth, FFT's pattern) and a hot-spot server (serialization, TSP's
// pattern).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"twolayer/internal/cliutil"
	"twolayer/internal/micro"
	"twolayer/internal/network"
	"twolayer/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		latency    = flag.Duration("latency", 10*time.Millisecond, "one-way wide-area latency")
		bandwidth  = flag.Float64("bandwidth", 1.0, "wide-area bandwidth in MByte/s")
		clusters   = flag.Int("clusters", 4, "number of clusters")
		perCluster = flag.Int("percluster", 8, "processors per cluster")
		reps       = flag.Int("reps", 16, "repetitions per pattern")
		bytes      = flag.Int64("bytes", 1024, "message payload size")
	)
	flag.Parse()
	if err := cliutil.CheckWANSpeed(*latency, *bandwidth); err != nil {
		return usage(err)
	}
	if *reps < 1 {
		return usage(fmt.Errorf("-reps must be at least 1 (got %d)", *reps))
	}
	if *bytes < 0 {
		return usage(fmt.Errorf("-bytes must be non-negative (got %d)", *bytes))
	}
	topo, err := cliutil.Machine(*clusters, *perCluster)
	if err != nil {
		return usage(err)
	}
	params := network.DefaultParams().WithWAN(sim.Time((*latency).Nanoseconds()), *bandwidth*1e6)
	results, err := micro.Measure(topo, params, *reps, *bytes)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("interconnect microbenchmarks on %s, WAN %v / %.3g MByte/s, %d x %d-byte messages:\n\n",
		topo, params.WANLatency, *bandwidth, *reps, *bytes)
	fmt.Println(micro.Render(results))
	fmt.Println("null-rpc tracks latency, stream tracks bandwidth; applications live in between")
	fmt.Println("(Section 5.2's reading of Figure 4).")
	return cliutil.ExitOK
}

func usage(err error) int {
	fmt.Fprintln(os.Stderr, "micro:", err)
	return cliutil.ExitUsage
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "micro:", err)
	return cliutil.ExitHarness
}

// Command topo prints the machine model — the paper's Figure 2 — and the
// derived interconnect characteristics for a given configuration,
// including the wide-area graph connecting the cluster gateways.
//
// Example:
//
//	topo -clusters 16 -percluster 2 -wan-topology torus2
//
// Exit codes: 0 ok, 2 flag misuse (bad shape or graph spec).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"twolayer/internal/cliutil"
	"twolayer/internal/network"
	"twolayer/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		clusters   = flag.Int("clusters", 4, "number of clusters")
		perCluster = flag.Int("percluster", 8, "processors per cluster")
		latency    = flag.Duration("latency", 500*time.Microsecond, "one-way wide-area latency")
		bandwidth  = flag.Float64("bandwidth", 6.0, "wide-area bandwidth in MByte/s")
		routes     = flag.Bool("routes", false, "print every cluster-to-cluster route")
	)
	wanSpec := cliutil.RegisterWANTopology()
	flag.Parse()

	if err := cliutil.CheckWANSpeed(*latency, *bandwidth); err != nil {
		return usage(err)
	}
	topo, err := cliutil.Machine(*clusters, *perCluster)
	if err != nil {
		return usage(err)
	}
	wan, err := cliutil.ParseWANTopology(*wanSpec, *clusters)
	if err != nil {
		return usage(err)
	}
	params := network.DefaultParams().WithWAN(sim.Time((*latency).Nanoseconds()), *bandwidth*1e6)

	fmt.Printf("Two-layer interconnect (after the DAS, Figure 2): %s\n\n", topo)
	for c := 0; c < topo.Clusters(); c++ {
		fmt.Printf("  cluster %d: ranks %v, gateway/coordinator rank %d\n",
			c, topo.RanksIn(c), topo.FirstRank(c))
	}
	fmt.Printf("\nfast (Myrinet-class) links: %v one-way, %.0f MByte/s\n",
		params.IntraLatency, params.IntraBandwidth/1e6)
	fmt.Printf("slow (ATM-class) links:     %v one-way, %.3g MByte/s\n",
		params.WANLatency, params.WANBandwidth/1e6)
	latGap, bwGap := params.Gap()
	fmt.Printf("NUMA gap:                   %.0fx latency, %.0fx bandwidth\n", latGap, bwGap)

	fmt.Printf("\nwide-area graph:            %s\n", wan.Spec())
	relays := wan.Nodes() - wan.Clusters()
	fmt.Printf("  nodes:                    %d gateways", wan.Clusters())
	if relays > 0 {
		fmt.Printf(" + %d relay switches", relays)
	}
	fmt.Printf(", %d directed links\n", wan.NumEdges())
	fmt.Printf("  routing diameter:         %d hops\n", wan.Diameter())
	fmt.Printf("  mean path length:         %.3f hops\n", wan.MeanPathLength())
	fmt.Printf("  bisection links:          %d directed\n", wan.BisectionLinks())
	fmt.Printf("  route hop histogram:      ")
	for hops, n := range wan.HopHistogram() {
		if hops == 0 || n == 0 {
			continue
		}
		fmt.Printf("%dh:%d ", hops, n)
	}
	fmt.Println()
	if *routes {
		fmt.Println("\nroutes (cluster -> cluster: node path):")
		for s := 0; s < wan.Clusters(); s++ {
			for d := 0; d < wan.Clusters(); d++ {
				if s == d {
					continue
				}
				fmt.Printf("  %3d -> %3d:", s, d)
				fmt.Printf(" %d", s)
				for _, e := range wan.Route(s, d) {
					fmt.Printf(" %d", wan.Edge(int(e)).Dst)
				}
				fmt.Println()
			}
		}
	}
	return cliutil.ExitOK
}

func usage(err error) int {
	fmt.Fprintln(os.Stderr, "topo:", err)
	return cliutil.ExitUsage
}

package cliutil

import (
	"flag"
	"fmt"
	"time"

	"twolayer/internal/wantopo"
)

// RegisterWANTopology installs the shared -wan-topology flag: the wide-area
// graph family connecting the cluster gateways. Parse flags, then resolve
// the value with ParseWANTopology once the cluster count is known.
func RegisterWANTopology() *string {
	return flag.String("wan-topology", "clique",
		"wide-area graph: clique (the paper's fully connected default), ring, "+
			"torus2/torus3 or torus:AxB[xC], circulant[:o1,o2,...], fattree:POD, "+
			"or minmpl:DEG[:SEED] (seeded minimal-mean-path search)")
}

// ParseWANTopology resolves the parsed -wan-topology spec for a machine
// with the given cluster count. The returned graph is safe to pass
// wherever a *wantopo.WAN is accepted; the default clique keeps the cache
// identity (and byte output) of runs that never mention a topology. A bad
// spec is flag misuse — the caller maps the error to ExitUsage.
func ParseWANTopology(spec string, clusters int) (*wantopo.WAN, error) {
	w, err := wantopo.Parse(spec, clusters)
	if err != nil {
		return nil, fmt.Errorf("-wan-topology: %w", err)
	}
	return w, nil
}

// CheckWANSpeed validates the -latency and -bandwidth flags the simulating
// commands share. A negative latency would schedule deliveries in the past
// and a zero, negative or NaN bandwidth has no transmission time; both are
// flag misuse — the caller maps the error to ExitUsage.
func CheckWANSpeed(latency time.Duration, bandwidthMB float64) error {
	if !(bandwidthMB > 0) {
		return fmt.Errorf("-bandwidth must be positive (got %g MByte/s)", bandwidthMB)
	}
	if latency < 0 {
		return fmt.Errorf("-latency must be non-negative (got %v)", latency)
	}
	return nil
}

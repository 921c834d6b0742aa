package network

import (
	"testing"

	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

// Shared helpers for the package's test files, so each file does not grow
// its own copy of the same parameter plumbing and delivery handler.

// flatParams removes software overheads so arrival times can be checked
// against hand-computed values.
func flatParams() Params {
	p := DefaultParams()
	p.SendOverhead = 0
	p.RecvOverhead = 0
	p.WANPerMessage = 0
	return p
}

// slowWANParams is the 10 ms / 1 MByte/s overhead-free configuration most
// extension tests probe, where the wide-area leg dominates every timing.
func slowWANParams() Params {
	return flatParams().WithWAN(10*sim.Millisecond, 1e6)
}

// dasNet builds a kernel and a DAS-shaped network with the given parameters.
func dasNet(t *testing.T, p Params) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel()
	return k, New(k, topology.DAS(), p)
}

// arrivals is the tests' delivery handler: it logs every delivery's token
// and virtual time in firing order (a duplicated message logs its token
// twice).
type arrivals struct {
	k   *sim.Kernel
	log []arrival
}

type arrival struct {
	token uint64
	at    sim.Time
}

func (a *arrivals) HandleEvent(token uint64) { a.log = append(a.log, arrival{token, a.k.Now()}) }

// send offers a data message tagged with token from src to dst and returns
// SendHandle's count of scheduled deliveries.
func (a *arrivals) send(n *Network, src, dst int, size int64, token uint64) int {
	return n.SendHandle(src, dst, size, ClassData, a, token)
}

// at returns the virtual time of token's first delivery, 0 if none.
func (a *arrivals) at(token uint64) sim.Time {
	for _, x := range a.log {
		if x.token == token {
			return x.at
		}
	}
	return 0
}

// tokens returns the delivered tokens in firing order.
func (a *arrivals) tokens() []uint64 {
	out := make([]uint64, len(a.log))
	for i, x := range a.log {
		out[i] = x.token
	}
	return out
}

package barneshut

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"twolayer/internal/apps"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

func TestTreeMassConservation(t *testing.T) {
	f := func(seed int64, nSel uint8) bool {
		n := int(nSel%100) + 1
		bodies := initialBodies(n, seed)
		tr := buildTree(bodies)
		totalMass := 0.0
		for _, b := range bodies {
			totalMass += b.Mass
		}
		return math.Abs(tr.root.mass-totalMass) < 1e-9 && tr.root.count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestThetaForceApproximatesDirect(t *testing.T) {
	bodies := initialBodies(200, 3)
	tr := buildTree(bodies)
	for i := 0; i < 200; i += 17 {
		approx, _ := tr.forceLocal(i, 0.5)
		exact := directForce(bodies, i)
		d := approx.Sub(exact)
		mag := math.Sqrt(exact.X*exact.X + exact.Y*exact.Y + exact.Z*exact.Z)
		err := math.Sqrt(d.X*d.X+d.Y*d.Y+d.Z*d.Z) / math.Max(mag, 1e-12)
		if err > 0.05 {
			t.Errorf("body %d: relative force error %.3f", i, err)
		}
	}
}

func TestThetaZeroIsExact(t *testing.T) {
	// theta -> 0 forces full traversal: must equal direct summation up to
	// summation order.
	bodies := initialBodies(50, 4)
	tr := buildTree(bodies)
	for i := 0; i < 50; i += 7 {
		approx, work := tr.forceLocal(i, 0)
		exact := directForce(bodies, i)
		d := approx.Sub(exact)
		if math.Abs(d.X)+math.Abs(d.Y)+math.Abs(d.Z) > 1e-9 {
			t.Errorf("body %d differs from direct", i)
		}
		if work != 49 {
			t.Errorf("body %d: %d interactions, want 49", i, work)
		}
	}
}

func TestExportShrinksWithDistance(t *testing.T) {
	bodies := initialBodies(256, 5)
	tr := buildTree(bodies)
	near := box{min: Vec{1, 1, 1}, max: Vec{2, 2, 2}}
	far := box{min: Vec{50, 50, 50}, max: Vec{51, 51, 51}}
	nearItems, _ := tr.exportInto(nil, near, 0.6)
	farItems, _ := tr.exportInto(nil, far, 0.6)
	if len(farItems) >= len(nearItems) {
		t.Errorf("far export (%d items) should be smaller than near (%d)", len(farItems), len(nearItems))
	}
	if len(farItems) == 0 {
		t.Error("far export should still summarize the mass")
	}
	// Exported mass is conserved in aggregates.
	sum := 0.0
	for _, it := range farItems {
		sum += it.Mass
	}
	if math.Abs(sum-tr.root.mass) > 1e-9 {
		t.Errorf("exported mass %.6f, tree mass %.6f", sum, tr.root.mass)
	}
}

func runBH(t *testing.T, topo *topology.Topology, optimized bool, params network.Params, scale apps.Scale) par.Result {
	t.Helper()
	inst := New(ConfigFor(scale), topo.Procs())
	res, err := par.Run(topo, params, 21, inst.Job(optimized))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBarnesHutCorrectAllVariants(t *testing.T) {
	topos := []*topology.Topology{
		topology.SingleCluster(1),
		topology.SingleCluster(4),
		topology.MustUniform(2, 2),
		topology.MustUniform(2, 3),
		topology.DAS(),
	}
	for _, topo := range topos {
		for _, opt := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/opt=%v", topo, opt), func(t *testing.T) {
				runBH(t, topo, opt, network.DefaultParams(), apps.Tiny)
			})
		}
	}
}

func TestCombiningCutsWANMessages(t *testing.T) {
	r1 := runBH(t, topology.DAS(), false, network.DefaultParams(), apps.Tiny)
	r2 := runBH(t, topology.DAS(), true, network.DefaultParams(), apps.Tiny)
	if r2.WAN.Messages >= r1.WAN.Messages {
		t.Errorf("optimized WAN messages %d, unoptimized %d", r2.WAN.Messages, r1.WAN.Messages)
	}
}

func TestOptimizedToleratesLatency(t *testing.T) {
	slow := network.DefaultParams().WithWAN(30*sim.Millisecond, 6e6)
	unopt := runBH(t, topology.DAS(), false, slow, apps.Small)
	opt := runBH(t, topology.DAS(), true, slow, apps.Small)
	if opt.Elapsed >= unopt.Elapsed {
		t.Errorf("optimized (%v) should beat unoptimized (%v) at 30ms", opt.Elapsed, unopt.Elapsed)
	}
}

func TestInfoMetadata(t *testing.T) {
	if Info.Name != "Barnes-Hut" || !Info.HasOptimized {
		t.Errorf("Info = %+v", Info)
	}
}

package droute

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/groute"
	"repro/internal/layout"
	"repro/internal/netgen"
)

// TestNegotiationUntanglesOrderingTrap builds a channel where greedy
// longest-first fails but a different assignment succeeds — negotiation must
// find it.
func TestNegotiationUntanglesOrderingTrap(t *testing.T) {
	// Track 0: [0,2)[2,6)[6,8); track 1: [0,4)[4,8).
	p := arch.Default(1, 8, 2)
	p.SegPattern = []int{2, 4, 2}
	p.PhaseStep = 0
	a := arch.MustNew(p)
	// Overwrite track 1 by rebuilding with a phase shift: instead use a
	// custom second pattern via PhaseStep.
	p.PhaseStep = 2 // track 1: [0,4)[4,8) given pattern (2,4,2) shifted by 2
	a = arch.MustNew(p)
	if len(a.Seg[1]) != 3 {
		t.Logf("track1 segs: %v", a.Seg[1])
	}

	// Nets: x=[3,4] (straddles track boundaries differently per track),
	// y=[0,3], z=[4,7]. Greedy order (longest first: y,z,x) can strand x.
	mk := func() []fabric.NetRoute {
		return []fabric.NetRoute{need(0, 3, 4), need(0, 0, 3), need(0, 4, 7)}
	}
	fGreedy := fabric.New(a)
	rGreedy := mk()
	greedyFailed := RouteAllDetailed(fGreedy, rGreedy, 1, rand.New(rand.NewSource(1)))

	fNeg := fabric.New(a)
	rNeg := mk()
	negFailed := RouteAllNegotiated(fNeg, rNeg, NegotiateConfig{})
	if negFailed > greedyFailed {
		t.Errorf("negotiation (%d failed) worse than greedy (%d failed)", negFailed, greedyFailed)
	}
	if negFailed == 0 {
		if err := fNeg.CheckConsistent(rNeg); err != nil {
			t.Fatal(err)
		}
	}
}

// Negotiation must never do worse than the single-pass router across random
// full-design instances, and its results must be fabric-consistent.
func TestNegotiationAtLeastAsGoodAsGreedy(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "ng", Inputs: 5, Outputs: 4, Seq: 2, Comb: 45, Seed: 87})
	if err != nil {
		t.Fatal(err)
	}
	for _, tracks := range []int{10, 14, 18} {
		for seed := int64(0); seed < 3; seed++ {
			a := arch.MustNew(arch.Default(6, 16, tracks))
			rng := rand.New(rand.NewSource(seed))
			pl, err := layout.NewRandom(a, nl, rng)
			if err != nil {
				t.Fatal(err)
			}
			route := func(neg bool) (int, *fabric.Fabric, []fabric.NetRoute) {
				f := fabric.New(a)
				routes := make([]fabric.NetRoute, nl.NumNets())
				if gf := groute.RouteAll(f, pl, routes); len(gf) > 0 {
					t.Skipf("global routing failed at %d tracks", tracks)
				}
				if neg {
					return RouteAllNegotiated(f, routes, NegotiateConfig{}), f, routes
				}
				return RouteAllDetailed(f, routes, 1, rand.New(rand.NewSource(seed))), f, routes
			}
			greedyFailed, _, _ := route(false)
			negFailed, fNeg, rNeg := route(true)
			if negFailed > greedyFailed {
				t.Errorf("tracks=%d seed=%d: negotiation %d failed vs greedy %d",
					tracks, seed, negFailed, greedyFailed)
			}
			if err := fNeg.CheckConsistent(rNeg); err != nil {
				t.Fatalf("tracks=%d seed=%d: %v", tracks, seed, err)
			}
		}
	}
}

func TestNegotiationRespectsPreRouted(t *testing.T) {
	a := arch.MustNew(arch.Default(1, 8, 1))
	f := fabric.New(a)
	// Block the whole single track with a foreign net.
	f.AllocH(0, 0, 0, len(a.Seg[0])-1, 99)
	routes := []fabric.NetRoute{need(0, 1, 3)}
	failed := RouteAllNegotiated(f, routes, NegotiateConfig{})
	if failed != 1 {
		t.Errorf("failed = %d, want 1 (track fully blocked)", failed)
	}
	if routes[0].Chans[0].Routed() {
		t.Error("net routed through blocked segments")
	}
}

func TestNegotiationEmptyInput(t *testing.T) {
	a := arch.MustNew(arch.Default(1, 8, 2))
	f := fabric.New(a)
	if failed := RouteAllNegotiated(f, nil, NegotiateConfig{}); failed != 0 {
		t.Errorf("failed = %d on empty input", failed)
	}
}

package seq

import (
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/droute"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/timing"
)

func testDesign(t *testing.T) (*arch.Arch, *netlist.Netlist) {
	t.Helper()
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	return arch.MustNew(arch.Default(5, 14, 20)), nl
}

func fastCfg(seed int64) Config {
	return Config{
		Seed:          seed,
		Place:         place.Config{Seed: seed, MovesPerCell: 5, MaxTemps: 50},
		RouteAttempts: 4,
	}
}

// TestSequentialFlowStages exercises the paper's Figure-1 pipeline: placement
// then global routing then detailed routing then timing, each stage's output
// consumed by the next.
func TestSequentialFlowStages(t *testing.T) {
	a, nl := testDesign(t)
	res, err := Run(a, nl, fastCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.P.Validate(); err != nil {
		t.Fatalf("placement invalid: %v", err)
	}
	if err := res.F.CheckConsistent(res.Routes); err != nil {
		t.Fatalf("fabric inconsistent: %v", err)
	}
	if !res.FullyRouted {
		t.Fatalf("generous fabric not fully routed: global=%d detail=%d", res.GlobalFailed, res.DetailFailed)
	}
	if res.WCD <= 0 {
		t.Error("no worst-case delay")
	}
	if len(res.CriticalCells) < 2 {
		t.Error("no critical path")
	}
}

func TestSequentialDeterministic(t *testing.T) {
	a, nl := testDesign(t)
	r1, err := Run(a, nl, fastCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(a, nl, fastCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if r1.WCD != r2.WCD || r1.UnroutedNets != r2.UnroutedNets {
		t.Errorf("same seed diverged: %v/%d vs %v/%d", r1.WCD, r1.UnroutedNets, r2.WCD, r2.UnroutedNets)
	}
}

func TestSequentialFailsGracefullyWhenStarved(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 14, 2)) // starved: 2 tracks/channel
	res, err := Run(a, nl, fastCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.FullyRouted {
		t.Error("2 tracks/channel should not route this design")
	}
	if res.UnroutedNets == 0 {
		t.Error("unrouted count not reported")
	}
	// WCD must still be defined (estimates for unrouted nets).
	if res.WCD <= 0 {
		t.Error("WCD undefined on partial layout")
	}
}

// Delays reported by the flow must equal an independent recomputation from
// the final layout.
func TestSequentialTimingMatchesRecompute(t *testing.T) {
	a, nl := testDesign(t)
	res, err := Run(a, nl, fastCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullyRouted {
		t.Skip("not fully routed at this seed")
	}
	an, err := timing.NewAnalyzer(nl)
	if err != nil {
		t.Fatal(err)
	}
	an.Begin()
	for id := range res.Routes {
		if len(nl.Nets[id].Sinks) == 0 {
			continue
		}
		d, err := timing.NetDelays(res.P, int32(id), &res.Routes[id], 1.0)
		if err != nil {
			t.Fatal(err)
		}
		an.SetNetDelays(int32(id), d)
	}
	got := an.Propagate()
	an.Commit()
	if got != res.WCD {
		t.Errorf("flow WCD %v, recompute %v", res.WCD, got)
	}
}

// The classic criticality-weighted two-pass placement is a stronger
// baseline, but on row-based FPGAs its placement-level delay estimates are
// structurally misleading (paper §2.1). It must still run correctly.
func TestTimingDrivenVariant(t *testing.T) {
	a, nl := testDesign(t)
	cfg := fastCfg(3)
	cfg.TimingDriven = true
	res, err := Run(a, nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.P.Validate(); err != nil {
		t.Fatal(err)
	}
	if !res.FullyRouted {
		t.Skipf("timing-driven variant unrouted at this seed")
	}
	if res.WCD <= 0 {
		t.Error("no WCD")
	}
	// Same seed, plain flow: results must differ (the weights did something).
	plain, err := Run(a, nl, fastCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if plain.WCD == res.WCD {
		t.Log("note: timing-driven pass produced identical WCD (possible but unlikely)")
	}
}

func TestNegotiatedRouterVariant(t *testing.T) {
	a, nl := testDesign(t)
	cfg := fastCfg(1)
	cfg.RouteBackend = droute.BackendNegotiated
	res, err := Run(a, nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.F.CheckConsistent(res.Routes); err != nil {
		t.Fatal(err)
	}
	if !res.FullyRouted {
		t.Errorf("negotiated router failed on generous fabric: %d unrouted", res.UnroutedNets)
	}
	// Head-to-head on a starved fabric: negotiation must not be worse.
	tight := arch.MustNew(arch.Default(5, 14, 6))
	plain, err := Run(tight, nl, fastCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	neg := fastCfg(1)
	neg.RouteBackend = droute.BackendNegotiated
	negRes, err := Run(tight, nl, neg)
	if err != nil {
		t.Fatal(err)
	}
	if err := negRes.F.CheckConsistent(negRes.Routes); err != nil {
		t.Fatal(err)
	}
	// Deeply infeasible instances are outside negotiation's value
	// proposition (it targets order-sensitive feasible ones), so only log
	// the comparison here; the head-to-head guarantees live in
	// internal/droute's negotiation tests.
	t.Logf("starved fabric: ordered %d unrouted, negotiated %d unrouted", plain.UnroutedNets, negRes.UnroutedNets)
}

func TestLagrangeRouterVariant(t *testing.T) {
	a, nl := testDesign(t)
	cfg := fastCfg(1)
	cfg.RouteBackend = "lagrange"
	res, err := Run(a, nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.F.CheckConsistent(res.Routes); err != nil {
		t.Fatal(err)
	}
	if !res.FullyRouted {
		t.Errorf("lagrange router failed on generous fabric: %d unrouted", res.UnroutedNets)
	}
	// The choice pass is net-parallel: every GOMAXPROCS must reproduce the
	// exact same layout (full-flow extension of the droute invariance tests).
	for _, procs := range []int{1, 4, 16} {
		r, err := func() (*Result, error) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return Run(a, nl, cfg)
		}()
		if err != nil {
			t.Fatal(err)
		}
		if r.WCD != res.WCD || r.UnroutedNets != res.UnroutedNets {
			t.Errorf("GOMAXPROCS=%d diverged: %v/%d vs %v/%d",
				procs, r.WCD, r.UnroutedNets, res.WCD, res.UnroutedNets)
		}
	}
	t.Logf("generous fabric: lagrange WCD %v", res.WCD)
}

// An unknown backend must fail fast with a configuration error, not fall
// through to some default router.
func TestUnknownRouteBackendRejected(t *testing.T) {
	a, nl := testDesign(t)
	cfg := fastCfg(1)
	cfg.RouteBackend = "pathfinder"
	if _, err := Run(a, nl, cfg); err == nil {
		t.Fatal("Run accepted route backend \"pathfinder\"")
	}
}

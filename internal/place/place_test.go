package place

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/layout"
	"repro/internal/netgen"
	"repro/internal/netlist"
)

func testDesign(t *testing.T) (*arch.Arch, *netlist.Netlist) {
	t.Helper()
	nl, err := netgen.Generate(netgen.Params{Name: "p", Inputs: 4, Outputs: 3, Seq: 2, Comb: 40, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return arch.MustNew(arch.Default(6, 12, 12)), nl
}

func totalWL(p *layout.Placement) float64 {
	wl := 0.0
	for id := range p.NL.Nets {
		wl += p.EstLength(int32(id))
	}
	return wl
}

func TestPlaceImprovesWirelength(t *testing.T) {
	a, nl := testDesign(t)
	rnd, err := layout.NewRandom(a, nl, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	randomWL := totalWL(rnd)

	p, res, err := Place(a, nl, Config{Seed: 7, MovesPerCell: 8, MaxTemps: 120})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("placement illegal after annealing: %v", err)
	}
	if res.Wirelength >= randomWL {
		t.Errorf("annealed WL %.0f not better than random %.0f", res.Wirelength, randomWL)
	}
	// Expect a substantial (>25%) improvement over random on this size.
	if res.Wirelength > 0.75*randomWL {
		t.Errorf("annealed WL %.0f, want < 75%% of random %.0f", res.Wirelength, randomWL)
	}
	if got := totalWL(p); got != res.Wirelength {
		t.Errorf("reported WL %.3f disagrees with recount %.3f", res.Wirelength, got)
	}
}

func TestPlaceDeterministic(t *testing.T) {
	a, nl := testDesign(t)
	run := func() float64 {
		_, res, err := Place(a, nl, Config{Seed: 3, MovesPerCell: 4, MaxTemps: 40})
		if err != nil {
			t.Fatal(err)
		}
		return res.Wirelength
	}
	if run() != run() {
		t.Error("same seed produced different placements")
	}
}

func TestIncrementalCostMatchesRecount(t *testing.T) {
	a, nl := testDesign(t)
	p, err := layout.NewRandom(a, nl, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	pr := newProblem(p, func() Config { c := Config{}; c.setDefaults(); return c }())
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 500; i++ {
		pr.Propose(rng)
		if rng.Intn(2) == 0 {
			pr.Accept()
		} else {
			pr.Reject()
		}
	}
	// Recount from scratch.
	fresh := newProblem(p, pr.cfg)
	if diff := pr.wl - fresh.wl; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("incremental WL drifted: %.6f vs %.6f", pr.wl, fresh.wl)
	}
	if diff := pr.penalty - fresh.penalty; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("incremental penalty drifted: %.6f vs %.6f", pr.penalty, fresh.penalty)
	}
	for ch := range pr.loads {
		if d := pr.loads[ch] - fresh.loads[ch]; d > 1e-6 || d < -1e-6 {
			t.Errorf("channel %d load drifted: %.6f vs %.6f", ch, pr.loads[ch], fresh.loads[ch])
		}
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCongestionPenaltyActivates(t *testing.T) {
	// Tiny capacity forces overflow to be visible.
	nl, err := netgen.Generate(netgen.Params{Name: "c", Inputs: 3, Outputs: 2, Seq: 1, Comb: 20, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(3, 10, 1)) // single track per channel
	p, err := layout.NewRandom(a, nl, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	cfg.setDefaults()
	pr := newProblem(p, cfg)
	if pr.penalty <= 0 {
		t.Error("expected congestion overflow with 1 track/channel")
	}
	if pr.Cost() <= pr.wl {
		t.Error("penalty not reflected in cost")
	}
}

// TestNetBinsAscending checks that every net's congestion bins come out in
// strictly ascending order, at the start and after each move, so the order
// in which a move adds and removes them is fixed by the placement alone.
func TestNetBinsAscending(t *testing.T) {
	a, nl := testDesign(t)
	p, err := layout.NewRandom(a, nl, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	pr := newProblem(p, Config{})
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		for id, c := range pr.contrib {
			for k := 1; k < len(c.bins); k++ {
				if c.bins[k].bin <= c.bins[k-1].bin {
					t.Fatalf("move %d: net %d bins %v not strictly ascending", i, id, c.bins)
				}
			}
		}
		pr.Propose(rng)
		pr.Accept()
	}
}

package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/netgen"
)

// The ablation knobs must leave every invariant intact; their quantitative
// effect is measured by the root ablation benchmarks.

func runVariant(t *testing.T, mutate func(*Config)) Result {
	t.Helper()
	nl, err := netgen.Generate(netgen.Params{Name: "abl", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 12, 12))
	cfg := Config{Seed: 5, MovesPerCell: 5, MaxTemps: 50}
	mutate(&cfg)
	o, err := New(a, nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := o.Run()
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNoPinmapMovesStillRoutes(t *testing.T) {
	res := runVariant(t, func(c *Config) { c.DisablePinmapMoves = true })
	if !res.FullyRouted {
		t.Errorf("not routed without pinmap moves: D=%d", res.D)
	}
}

func TestNoDCGradientStillRoutes(t *testing.T) {
	res := runVariant(t, func(c *Config) { c.DCFraction = -1 })
	if !res.FullyRouted {
		t.Errorf("not routed without the missing-channel gradient: D=%d", res.D)
	}
}

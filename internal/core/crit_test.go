package core

import (
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/netgen"
)

// TestCritRunDeterministicAndConsistent: a full serial run with the
// criticality term and move bias enabled is deterministic for a fixed seed,
// routes completely, and leaves a state that passes the full invariant
// checker (including the crit-sum cross-check).
func TestCritRunDeterministicAndConsistent(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 12, 14))
	cfg := Config{Seed: 9, MovesPerCell: 3, MaxTemps: 25, CritWeight: 1}
	run := func() (Result, *Optimizer) {
		o, err := New(a, nl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return o.Run(), o
	}
	r1, o1 := run()
	r2, _ := run()
	if !r1.FullyRouted {
		t.Fatalf("crit-on run not fully routed: G=%d D=%d", r1.G, r1.D)
	}
	if r1.WCD != r2.WCD || r1.FinalCost != r2.FinalCost ||
		r1.Anneal.TotalMoves != r2.Anneal.TotalMoves || r1.Anneal.Accepted != r2.Anneal.Accepted {
		t.Errorf("crit-on run not deterministic: (WCD=%.17g cost=%.17g moves=%d acc=%d) vs (WCD=%.17g cost=%.17g moves=%d acc=%d)",
			r1.WCD, r1.FinalCost, r1.Anneal.TotalMoves, r1.Anneal.Accepted,
			r2.WCD, r2.FinalCost, r2.Anneal.TotalMoves, r2.Anneal.Accepted)
	}
	if err := o1.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCritParallelDeterministicAcrossGOMAXPROCS: the criticality state must
// clone correctly — a multi-chain crit-on run reproduces the identical result
// regardless of scheduling.
func TestCritParallelDeterministicAcrossGOMAXPROCS(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 12, 14))
	run := func(procs int) Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		o, err := New(a, nl, Config{
			Seed: 9, MovesPerCell: 3, MaxTemps: 25,
			Chains: 3, SyncTemps: 4,
			CritWeight: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		champ, r := o.RunParallel()
		if err := champ.Check(); err != nil {
			t.Fatalf("champion state inconsistent: %v", err)
		}
		return r
	}
	r1 := run(1)
	r2 := run(4)
	if r1.WCD != r2.WCD || r1.FinalCost != r2.FinalCost || r1.Champion != r2.Champion {
		t.Errorf("crit-on parallel run scheduling-dependent: (WCD=%.17g cost=%.17g champ=%d) vs (WCD=%.17g cost=%.17g champ=%d)",
			r1.WCD, r1.FinalCost, r1.Champion, r2.WCD, r2.FinalCost, r2.Champion)
	}
}

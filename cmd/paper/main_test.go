package main

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/exper"
)

func tinyEffort() exper.Effort {
	return exper.Effort{Name: "test", PlaceMovesPerCell: 4, PlaceMaxTemps: 30,
		CoreMovesPerCell: 4, CoreMaxTemps: 30, RouteAttempts: 2}
}

func TestRunFigure6AndRuntime(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "fig6.csv")
	if err := run(false, false, true, false, true, tinyEffort(), 1, "tiny", csv); err != nil {
		t.Fatal(err)
	}
}

// TestChainsFlagReachesParallelEngine replays main's flag plumbing — start
// from a constructed effort, override Chains the way -chains does — and
// asserts the parallel portfolio engine actually ran. This pins the fix for
// the bug where PaperEffort()/FastEffort() left Chains zero and a -chains
// override silently fell back to the serial engine.
func TestChainsFlagReachesParallelEngine(t *testing.T) {
	e := exper.FastEffort()
	if e.Chains != 1 {
		t.Fatalf("FastEffort().Chains = %d, want 1 (explicit serial default)", e.Chains)
	}
	e.CoreMovesPerCell, e.CoreMaxTemps = 4, 30
	e.Chains = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	nl, err := exper.Design("tiny")
	if err != nil {
		t.Fatal(err)
	}
	a, err := exper.ArchFor(nl, 20)
	if err != nil {
		t.Fatal(err)
	}
	_, res, _, err := exper.RunSim(a, nl, e, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chains != 4 {
		t.Errorf("Result.Chains = %d, want 4: -chains did not reach RunParallel", res.Chains)
	}
	if len(res.ChainCosts) != 4 {
		t.Errorf("per-chain report: %d costs, want 4", len(res.ChainCosts))
	}
}

func TestRunTable1Tiny(t *testing.T) {
	// Table 1 on the paper designs is too heavy for a unit test; exercise the
	// code path through the runtime-ratio branch plus figure6 above. Here we
	// only confirm run() propagates errors for an unknown design.
	if err := run(false, false, true, false, false, tinyEffort(), 1, "nonesuch", ""); err == nil {
		t.Error("unknown design accepted")
	}
}

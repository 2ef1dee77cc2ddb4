package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/exper"
)

// TestMain runs the command itself when PAPER_RUN_MAIN is set, so a test can
// drive main's flag parsing and exit paths in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("PAPER_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestProfilesSurviveFailedRun runs the command on an unknown design with
// -pprof. The run fails and exits 1, and both profiles must still be
// written: main stops them before it exits.
func TestProfilesSurviveFailedRun(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "p")
	cmd := exec.Command(os.Args[0], "-fast", "-figure6", "-design", "nosuch", "-pprof", prefix)
	cmd.Env = append(os.Environ(), "PAPER_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("run on an unknown design: %v, want exit status 1\n%s", err, out)
	}
	for _, suffix := range []string{".cpu.pprof", ".heap.pprof"} {
		st, err := os.Stat(prefix + suffix)
		if err != nil {
			t.Fatalf("profile %s: %v", suffix, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", suffix)
		}
	}
}

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
}

func TestRunTable1Tiny(t *testing.T) {
	// Table 1 on the paper designs is too heavy for a unit test; exercise the
	// code path through the runtime-ratio branch plus figure6 above. Here we
	// only confirm run() propagates errors for an unknown design.
	if err := run(false, false, true, false, false, tinyEffort(), 1, "nonesuch", ""); err == nil {
		t.Error("unknown design accepted")
	}
}

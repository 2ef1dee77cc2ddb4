package exper

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// goldenReport is a fixed report whose serialized form is pinned by testdata.
// Changing the JSON shape without bumping BenchSchema breaks this test on
// purpose.
func goldenReport() *BenchReport {
	return &BenchReport{
		Schema:    BenchSchema,
		Generated: "2026-01-02T03:04:05Z",
		GoVersion: "go1.24.0",
		Effort:    "fast",
		Seed:      1,
		Tracks:    38,
		Chains:    1,
		Rows: []BenchRow{{
			Design: "tiny", Cells: 30, Nets: 40,
			Quality: Quality{
				FullyRouted: true, Unrouted: 0, GUnrouted: 0,
				WCDPs: 1234.5, FinalCost: 6.789,
				Temps: 50, Moves: 9000,
			},
			Accepted: 4000, Restarts: 0,
			LayoutHash: "deadbeef00112233445566778899aabbccddeeff00112233445566778899aabb",
			WallMS:     125.25, PeakMovesPerSec: 72000,
			AllocsPerMove: 1.25, BytesPerMove: 96.5,
			RouteFailed: 0, RouteWallMS: 4.5,
		}},
	}
}

func TestBenchReportGoldenSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBenchReport(&buf, goldenReport()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "bench_golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate by writing the test output): %v", err)
	}
	if buf.String() != string(want) {
		t.Errorf("BENCH JSON schema drifted from %s.\ngot:\n%s\nwant:\n%s",
			golden, buf.String(), want)
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBenchReport(&buf, goldenReport()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenReport()
	if got.Seed != want.Seed || got.Effort != want.Effort || len(got.Rows) != 1 ||
		got.Rows[0] != want.Rows[0] {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}

	if _, err := ReadBenchReport(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Error("foreign schema accepted")
	}
}

func TestCompareBenchReports(t *testing.T) {
	base := goldenReport()
	opt := DefaultCompareOptions()

	t.Run("identical passes", func(t *testing.T) {
		regs, err := CompareBenchReports(base, goldenReport(), opt)
		if err != nil || len(regs) != 0 {
			t.Errorf("got %v, %v; want no regressions", regs, err)
		}
	})

	t.Run("wall time within tolerance passes", func(t *testing.T) {
		cur := goldenReport()
		cur.Rows[0].WallMS = base.Rows[0].WallMS*1.2 + 100 // inside 25% + 250ms
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil || len(regs) != 0 {
			t.Errorf("got %v, %v; want no regressions", regs, err)
		}
	})

	t.Run("quality and wall regressions flagged", func(t *testing.T) {
		cur := goldenReport()
		cur.Rows[0].Unrouted = 2
		cur.Rows[0].GUnrouted = 1
		cur.Rows[0].WCDPs = base.Rows[0].WCDPs * 1.01
		cur.Rows[0].WallMS = base.Rows[0].WallMS*1.25 + 251
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 4 {
			t.Errorf("got %d regressions (%v), want 4", len(regs), regs)
		}
	})

	t.Run("layout hash mismatch flagged", func(t *testing.T) {
		cur := goldenReport()
		cur.Rows[0].LayoutHash = "0000000000112233445566778899aabbccddeeff00112233445566778899aabb"
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || !strings.Contains(regs[0], "layout hash") {
			t.Errorf("got %v, want one layout-hash regression", regs)
		}
	})

	t.Run("missing hash on either side is not gated", func(t *testing.T) {
		cur := goldenReport()
		cur.Rows[0].LayoutHash = ""
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil || len(regs) != 0 {
			t.Errorf("got %v, %v; want no regressions against a hashless report", regs, err)
		}
	})

	t.Run("alloc regressions flagged", func(t *testing.T) {
		cur := goldenReport()
		cur.Rows[0].AllocsPerMove = base.Rows[0].AllocsPerMove*1.25 + 3
		cur.Rows[0].BytesPerMove = base.Rows[0].BytesPerMove*1.25 + 257
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 2 {
			t.Errorf("got %d regressions (%v), want 2 (allocs/move and bytes/move)", len(regs), regs)
		}
	})

	t.Run("alloc growth within tolerance passes", func(t *testing.T) {
		cur := goldenReport()
		cur.Rows[0].AllocsPerMove = base.Rows[0].AllocsPerMove*1.2 + 1
		cur.Rows[0].BytesPerMove = base.Rows[0].BytesPerMove*1.2 + 100
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil || len(regs) != 0 {
			t.Errorf("got %v, %v; want no regressions", regs, err)
		}
	})

	t.Run("zero-alloc baseline does not arm alloc gate", func(t *testing.T) {
		b0 := goldenReport()
		b0.Rows[0].AllocsPerMove, b0.Rows[0].BytesPerMove = 0, 0
		cur := goldenReport()
		cur.Rows[0].AllocsPerMove, cur.Rows[0].BytesPerMove = 50, 5000
		regs, err := CompareBenchReports(b0, cur, opt)
		if err != nil || len(regs) != 0 {
			t.Errorf("got %v, %v; want no regressions against a pre-counter baseline", regs, err)
		}
	})

	t.Run("missing benchmark flagged", func(t *testing.T) {
		cur := goldenReport()
		cur.Rows = nil
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || !strings.Contains(regs[0], "missing") {
			t.Errorf("got %v, want one missing-benchmark regression", regs)
		}
	})

	t.Run("configuration mismatch errors", func(t *testing.T) {
		cur := goldenReport()
		cur.Seed = 2
		if _, err := CompareBenchReports(base, cur, opt); err == nil {
			t.Error("seed mismatch accepted")
		}
	})

	t.Run("crit configuration mismatch errors in standard mode", func(t *testing.T) {
		cur := goldenReport()
		cur.CritWeight = 1
		if _, err := CompareBenchReports(base, cur, opt); err == nil {
			t.Error("crit-weight mismatch accepted by the standard gate")
		}
	})
}

// tqReport is a two-design baseline for the timing-quality gate tests.
func tqReport() *BenchReport {
	r := goldenReport()
	second := r.Rows[0]
	second.Design = "cse"
	second.WCDPs = 2000
	second.WallMS = 300
	r.Rows = append(r.Rows, second)
	return r
}

func TestCompareTimingQuality(t *testing.T) {
	opt := TimingQualityCompareOptions()
	base := tqReport()

	// critRun mimics a criticality-weighted re-run of the same suite: the
	// layouts (hence hashes and critical paths) differ by design.
	critRun := func() *BenchReport {
		r := tqReport()
		r.CritWeight, r.CritBias, r.CritDamping = 1, 0.25, 0.6
		for i := range r.Rows {
			r.Rows[i].WCDPs *= 0.9
			r.Rows[i].LayoutHash = "1111111111112233445566778899aabbccddeeff00112233445566778899aabb"
			r.Rows[i].WallMS *= 1.02
		}
		return r
	}

	t.Run("improvement within wall budget passes", func(t *testing.T) {
		regs, err := CompareBenchReports(base, critRun(), opt)
		if err != nil || len(regs) != 0 {
			t.Errorf("got %v, %v; want no regressions", regs, err)
		}
	})

	t.Run("no geomean improvement fails", func(t *testing.T) {
		cur := critRun()
		for i := range cur.Rows {
			cur.Rows[i].WCDPs = base.Rows[i].WCDPs // equal is not an improvement
		}
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || !strings.Contains(regs[0], "geomean") {
			t.Errorf("got %v, want one geomean regression", regs)
		}
	})

	t.Run("one design worse but geomean better still passes", func(t *testing.T) {
		cur := critRun()
		cur.Rows[0].WCDPs = base.Rows[0].WCDPs * 1.05
		cur.Rows[1].WCDPs = base.Rows[1].WCDPs * 0.5
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil || len(regs) != 0 {
			t.Errorf("got %v, %v; want no regressions (aggregate gate, not per-design)", regs, err)
		}
	})

	t.Run("wall cost over budget fails", func(t *testing.T) {
		cur := critRun()
		for i := range cur.Rows {
			cur.Rows[i].WallMS = base.Rows[i].WallMS*1.06 + 300
		}
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || !strings.Contains(regs[0], "wall") {
			t.Errorf("got %v, want one wall-budget regression", regs)
		}
	})

	t.Run("routing regression still fails", func(t *testing.T) {
		cur := critRun()
		cur.Rows[0].Unrouted = 1
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || !strings.Contains(regs[0], "unrouted") {
			t.Errorf("got %v, want one unrouted regression", regs)
		}
	})

	t.Run("missing design still fails", func(t *testing.T) {
		cur := critRun()
		cur.Rows = cur.Rows[:1]
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range regs {
			if strings.Contains(r, "missing") {
				found = true
			}
		}
		if !found {
			t.Errorf("got %v, want a missing-benchmark regression", regs)
		}
	})

	t.Run("crit fields may differ without error", func(t *testing.T) {
		if _, err := CompareBenchReports(base, critRun(), opt); err != nil {
			t.Errorf("timing-quality compare rejected differing crit configs: %v", err)
		}
	})

	t.Run("effort mismatch still errors", func(t *testing.T) {
		cur := critRun()
		cur.Effort = "paper"
		if _, err := CompareBenchReports(base, cur, opt); err == nil {
			t.Error("effort mismatch accepted in timing-quality mode")
		}
	})

	t.Run("no comparable designs fails closed", func(t *testing.T) {
		cur := critRun()
		for i := range cur.Rows {
			cur.Rows[i].WCDPs = 0
		}
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range regs {
			if strings.Contains(r, "no comparable designs") {
				found = true
			}
		}
		if !found {
			t.Errorf("got %v, want a no-comparable-designs failure", regs)
		}
	})
}

// TestRunBenchmarkDeterministicQuality runs the same benchmark twice and
// requires bit-identical quality metrics; only wall-clock fields may differ.
func TestRunBenchmarkDeterministicQuality(t *testing.T) {
	e := tinyEffort()
	e.Chains = 1
	r1, err := RunBenchmark("tiny", e, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunBenchmark("tiny", e, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the machine-dependent fields, then require exact equality — note
	// LayoutHash stays in the comparison: it must be bit-identical per seed.
	r1.WallMS, r2.WallMS = 0, 0
	r1.PeakMovesPerSec, r2.PeakMovesPerSec = 0, 0
	r1.AllocsPerMove, r2.AllocsPerMove = 0, 0
	r1.BytesPerMove, r2.BytesPerMove = 0, 0
	r1.RouteWallMS, r2.RouteWallMS = 0, 0
	if r1 != r2 {
		t.Errorf("same-seed benchmark rows differ:\n%+v\n%+v", r1, r2)
	}
	if r1.Moves == 0 || r1.Temps == 0 {
		t.Errorf("benchmark row looks empty: %+v", r1)
	}
}

// TestRunBenchmarkFeedsCallerCollector verifies the effort's own collector
// still sees the run when RunBenchmark layers its private Summary on top.
func TestRunBenchmarkFeedsCallerCollector(t *testing.T) {
	e := tinyEffort()
	sum := metrics.NewSummary()
	e.Metrics = sum
	row, err := RunBenchmark("tiny", e, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	tot := sum.Totals()
	if tot.Moves != row.Moves {
		t.Errorf("caller collector saw %d moves, row reports %d", tot.Moves, row.Moves)
	}
	if row.PeakMovesPerSec <= 0 {
		t.Errorf("PeakMovesPerSec = %v, want > 0", row.PeakMovesPerSec)
	}
}

func TestCompareRouteGate(t *testing.T) {
	opt := RouteGateCompareOptions()
	base := goldenReport()

	t.Run("backend mismatch allowed with route fields intact", func(t *testing.T) {
		cur := goldenReport()
		cur.RouteBackend = "lagrange"
		cur.RouteIters = 12
		// Cross-backend layouts legitimately differ: none of the per-design
		// hash/WCD/wall/alloc gates may fire in route mode.
		cur.Rows[0].LayoutHash = strings.Repeat("ab", 32)
		cur.Rows[0].WCDPs = base.Rows[0].WCDPs * 1.5
		cur.Rows[0].WallMS = base.Rows[0].WallMS * 10
		cur.Rows[0].AllocsPerMove = base.Rows[0].AllocsPerMove * 10
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil || len(regs) != 0 {
			t.Errorf("got %v, %v; want no regressions", regs, err)
		}
	})

	t.Run("standard mode rejects backend mismatch", func(t *testing.T) {
		cur := goldenReport()
		cur.RouteBackend = "lagrange"
		if _, err := CompareBenchReports(base, cur, DefaultCompareOptions()); err == nil {
			t.Error("route-backend mismatch accepted by the standard gate")
		}
	})

	t.Run("route failure increase flagged", func(t *testing.T) {
		cur := goldenReport()
		cur.RouteBackend = "lagrange"
		cur.Rows[0].RouteFailed = 1
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || !strings.Contains(regs[0], "constructive route failures") {
			t.Errorf("got %v, want one route-failure regression", regs)
		}
	})

	t.Run("unrouted increase still flagged", func(t *testing.T) {
		cur := goldenReport()
		cur.Rows[0].Unrouted = 2
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || !strings.Contains(regs[0], "unrouted nets") {
			t.Errorf("got %v, want one unrouted regression", regs)
		}
	})

	t.Run("route wall over slack flagged", func(t *testing.T) {
		cur := goldenReport()
		cur.Rows[0].RouteWallMS = base.Rows[0].RouteWallMS + opt.RouteWallSlackMS + 1
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || !strings.Contains(regs[0], "route-scaling gate") {
			t.Errorf("got %v, want one route-scaling regression", regs)
		}
	})

	t.Run("route wall within slack passes", func(t *testing.T) {
		cur := goldenReport()
		cur.Rows[0].RouteWallMS = base.Rows[0].RouteWallMS + opt.RouteWallSlackMS - 1
		regs, err := CompareBenchReports(base, cur, opt)
		if err != nil || len(regs) != 0 {
			t.Errorf("got %v, %v; want no regressions", regs, err)
		}
	})

	t.Run("baseline without route fields fails closed", func(t *testing.T) {
		old := goldenReport()
		old.Rows[0].RouteWallMS = 0
		regs, err := CompareBenchReports(old, goldenReport(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || !strings.Contains(regs[0], "no comparable designs") {
			t.Errorf("got %v, want the fail-closed route-scaling regression", regs)
		}
	})

	t.Run("route failure gate armed in standard mode", func(t *testing.T) {
		cur := goldenReport()
		cur.Rows[0].RouteFailed = 3
		regs, err := CompareBenchReports(base, cur, DefaultCompareOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || !strings.Contains(regs[0], "constructive route failures") {
			t.Errorf("got %v, want one route-failure regression", regs)
		}
	})
}

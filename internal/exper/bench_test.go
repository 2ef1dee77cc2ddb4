package exper

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/droute"
	"repro/internal/layio"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/seq"
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
	opt := CompareOptions{WallTol: 0.25}

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
	opt := CompareOptions{TimingQuality: true}
	base := tqReport()

	// critRun mimics a criticality-weighted re-run of the same suite: the
	// layouts (hence hashes and critical paths) differ by design.
	critRun := func() *BenchReport {
		r := tqReport()
		r.CritWeight = 1
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
	base := goldenReport()

	t.Run("standard mode rejects backend mismatch", func(t *testing.T) {
		cur := goldenReport()
		cur.RouteBackend = "lagrange"
		if _, err := CompareBenchReports(base, cur, CompareOptions{WallTol: 0.25}); err == nil {
			t.Error("route-backend mismatch accepted by the standard gate")
		}
	})

	t.Run("route failure gate armed in standard mode", func(t *testing.T) {
		cur := goldenReport()
		cur.Rows[0].RouteFailed = 3
		regs, err := CompareBenchReports(base, cur, CompareOptions{WallTol: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || !strings.Contains(regs[0], "constructive route failures") {
			t.Errorf("got %v, want one route-failure regression", regs)
		}
	})
}

// TestLayoutHashSurvivesReload requires LayoutHash to be the hash of the
// saved layout, so the layout reloaded from those bytes hashes the same. The
// runs hold routes ripped and re-routed without a trunk, and unrouted nets.
func TestLayoutHashSurvivesReload(t *testing.T) {
	for _, tc := range []struct {
		design string
		arch   func(*netlist.Netlist) (*arch.Arch, error)
	}{
		{"big529", func(nl *netlist.Netlist) (*arch.Arch, error) { return ArchFor(nl, DefaultTracks) }},
		{"s1", constrainedArchFor},
	} {
		nl, err := Design(tc.design)
		if err != nil {
			t.Fatal(err)
		}
		a, err := tc.arch(nl)
		if err != nil {
			t.Fatal(err)
		}
		o, err := core.New(a, nl, core.Config{Seed: 1, MovesPerCell: 1, MaxTemps: 10})
		if err != nil {
			t.Fatal(err)
		}
		o.Run()
		var buf bytes.Buffer
		if err := layio.Write(&buf, o.P, o.Rts); err != nil {
			t.Fatal(err)
		}
		p, rts, err := layio.Read(bytes.NewReader(buf.Bytes()), a, nl)
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := layio.Write(&again, p, rts); err != nil {
			t.Fatal(err)
		}
		if got, want := LayoutHash(o), fmt.Sprintf("%x", sha256.Sum256(again.Bytes())); got != want {
			t.Errorf("%s: layout hash %s, reloaded layout hashes %s", tc.design, got, want)
		}
	}
}

// TestSeqRoutesSurviveReload requires every route of a starved sequential
// flow, whose detailed router rips and retries channel entries, to equal its
// reload field for field under each backend.
func TestSeqRoutesSurviveReload(t *testing.T) {
	for _, design := range []string{"s1", "cse"} {
		nl, err := Design(design)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ArchFor(nl, 20)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []droute.Backend{droute.BackendOrdered, droute.BackendNegotiated, droute.BackendLagrange} {
			res, err := seq.Run(a, nl, seq.Config{Seed: 3, RouteAttempts: 4, RouteBackend: b,
				Place: place.Config{MovesPerCell: 2, MaxTemps: 20}})
			if err != nil {
				t.Fatal(err)
			}
			if res.FullyRouted {
				t.Fatalf("%s/%s: fully routed; the array is not starved", design, b)
			}
			var buf bytes.Buffer
			if err := layio.Write(&buf, res.P, res.Routes); err != nil {
				t.Fatal(err)
			}
			_, rts, err := layio.Read(&buf, a, nl)
			if err != nil {
				t.Fatal(err)
			}
			differ := 0
			for id := range rts {
				if !rts[id].Equal(&res.Routes[id]) {
					differ++
				}
			}
			if differ > 0 {
				t.Errorf("%s/%s: %d reloaded routes differ from the live ones", design, b, differ)
			}
		}
	}
}

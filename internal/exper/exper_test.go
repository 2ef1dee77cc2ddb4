package exper

import (
	"testing"

	"repro/internal/metrics"
)

// tinyEffort keeps unit tests quick.
func tinyEffort() Effort {
	return Effort{Name: "tiny", PlaceMovesPerCell: 5, PlaceMaxTemps: 50,
		CoreMovesPerCell: 5, CoreMaxTemps: 50, RouteAttempts: 4}
}

func TestArchFor(t *testing.T) {
	nl, err := Design("tiny")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ArchFor(nl, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tracks != 20 {
		t.Errorf("tracks = %d", a.Tracks)
	}
	if a.Slots() < nl.NumCells() {
		t.Errorf("only %d slots for %d cells", a.Slots(), nl.NumCells())
	}
	big, err := Design("big529")
	if err != nil {
		t.Fatal(err)
	}
	ab, err := ArchFor(big, 20)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Rows <= a.Rows {
		t.Error("larger design should get more rows")
	}
}

func TestDesignUnknown(t *testing.T) {
	if _, err := Design("nonesuch"); err == nil {
		t.Error("unknown design accepted")
	}
}

func TestTableDesigns(t *testing.T) {
	names := TableDesigns()
	if len(names) != 5 {
		t.Fatalf("want the paper's 5 designs, got %d", len(names))
	}
	for _, n := range names {
		if _, err := Design(n); err != nil {
			t.Errorf("design %s: %v", n, err)
		}
	}
}

func TestTable1Tiny(t *testing.T) {
	rows, err := Table1([]string{"tiny"}, tinyEffort(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.Err != "" {
		t.Fatalf("flow failed: %s", r.Err)
	}
	if r.SeqWCD <= 0 || r.SimWCD <= 0 {
		t.Errorf("missing delays: %+v", r)
	}
	if r.Agreement < 0.8 || r.Agreement > 1.05 {
		t.Errorf("agreement %.3f implausible", r.Agreement)
	}
	// On a 30-cell design the margin is noisy; just require the simultaneous
	// tool is not drastically worse.
	if r.ImprovePct < -15 {
		t.Errorf("simultaneous much worse than sequential: %+v", r)
	}
}

func TestTable2Tiny(t *testing.T) {
	rows, err := Table2([]string{"tiny"}, tinyEffort(), 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.SeqTracks <= 0 || r.SimTracks <= 0 {
		t.Fatalf("min-track search failed: %+v", r)
	}
	if r.SimTracks > r.SeqTracks {
		t.Errorf("simultaneous needed more tracks than sequential: %+v", r)
	}
}

func TestFigure6Tiny(t *testing.T) {
	dyn, err := Figure6("tiny", tinyEffort(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn) < 3 {
		t.Fatalf("trace too short: %d", len(dyn))
	}
	last := dyn[len(dyn)-1]
	if last.Unrouted > 0.05 {
		t.Errorf("final unrouted fraction %.3f", last.Unrouted)
	}
	if dyn[1].CellsPerturbed <= last.CellsPerturbed {
		t.Errorf("placement activity did not decay: %.2f -> %.2f",
			dyn[1].CellsPerturbed, last.CellsPerturbed)
	}
}

func TestRuntimeRatioTiny(t *testing.T) {
	seqDur, simDur, err := RuntimeRatio("tiny", tinyEffort(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if seqDur <= 0 || simDur <= 0 {
		t.Fatal("durations not measured")
	}
	// The simultaneous flow pays a runtime premium (paper: 3-4x).
	if simDur < seqDur {
		t.Logf("note: sim (%v) faster than seq (%v) on tiny design", simDur, seqDur)
	}
}

func TestFigure7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("big529 run in -short mode")
	}
	res, err := Figure7(tinyEffort(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 529 {
		t.Errorf("cells = %d, want 529", res.Cells)
	}
	if !res.FullyRouted {
		t.Errorf("big529 not fully routed at tiny effort")
	}
}

func TestSegmentationSweepTiny(t *testing.T) {
	e := tinyEffort()
	sum := metrics.NewSummary()
	e.Metrics = sum
	rows, err := SegmentationSweep("tiny", 16, e, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The sweep runs through RunSim, so the effort's collector sees it.
	if sum.Totals().Moves == 0 {
		t.Error("the effort's collector saw no moves")
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	var short, long *SegSweepRow
	for i := range rows {
		switch rows[i].Scheme {
		case "short":
			short = &rows[i]
		case "long":
			long = &rows[i]
		}
		if rows[i].FullyRouted && rows[i].WCD <= 0 {
			t.Errorf("%s: routed but no WCD", rows[i].Scheme)
		}
	}
	// The §1 tradeoff (short segmentation → more antifuses) emerges on
	// realistic sizes but sits inside placement noise on a 30-cell design,
	// so only log it here; all rows must carry sane data.
	if short.FullyRouted && long.FullyRouted {
		t.Logf("antifuses: short %d, long %d", short.Antifuses, long.Antifuses)
	}
	for _, r := range rows {
		if r.Antifuses <= 0 {
			t.Errorf("%s: no antifuses reported", r.Scheme)
		}
	}
}

package exper

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/layio"
	"repro/internal/metrics"
	"repro/internal/portfolio"
)

// BenchSchema versions the BENCH_*.json report emitted by cmd/bench. Bump on
// any breaking change to BenchReport/BenchRow.
const BenchSchema = "repro-bench/v1"

// BenchReport is the schema-versioned output of one cmd/bench run. All
// quality fields (final cost, unrouted counts, critical path) are
// deterministic for a fixed (effort, seed, tracks, chains) tuple; only the
// wall-clock and throughput fields vary between runs and machines.
type BenchReport struct {
	Schema    string     `json:"schema"`
	Generated string     `json:"generated,omitempty"` // RFC3339; ignored by comparisons
	GoVersion string     `json:"go_version,omitempty"`
	Effort    string     `json:"effort"`
	Seed      int64      `json:"seed"`
	Tracks    int        `json:"tracks"`
	Chains    int        `json:"chains"`
	Rows      []BenchRow `json:"benchmarks"`

	// Criticality-weighted timing term weight the suite ran with (see
	// core.Config). Zero — and omitted from the JSON — for the default
	// engine, so pre-extension reports decode and compare unchanged.
	CritWeight float64 `json:"crit_weight,omitempty"`

	// Detailed-router backend the suite ran with (see droute.Backend). Empty
	// — and omitted from the JSON — for the default ordered router, so
	// pre-extension reports decode and compare unchanged.
	RouteBackend string `json:"route_backend,omitempty"`
}

// Quality is the deterministic quality record of one simultaneous run, the
// part of a result every report shares: bench rows and the job service's
// run stats embed it (keeping its JSON fields in place), and portfolio
// scoring reads it.
type Quality struct {
	FullyRouted bool    `json:"fully_routed"`
	Unrouted    int     `json:"unrouted"`         // nets lacking a complete detailed route (D)
	GUnrouted   int     `json:"global_unrouted"`  // globally unroutable nets (G)
	WCDPs       float64 `json:"critical_path_ps"` // worst-case delay
	FinalCost   float64 `json:"final_cost"`
	Temps       int     `json:"temps"`
	Moves       int     `json:"moves"`
}

// QualityOf extracts the quality record from an optimizer result.
func QualityOf(res core.Result) Quality {
	return Quality{
		FullyRouted: res.FullyRouted,
		Unrouted:    res.D,
		GUnrouted:   res.G,
		WCDPs:       res.WCD,
		FinalCost:   res.FinalCost,
		Temps:       res.Anneal.Temps,
		Moves:       res.Anneal.TotalMoves,
	}
}

// Score places the run in the portfolio quality order.
func (q Quality) Score() portfolio.Score {
	return portfolio.Score{
		RouteFailed: !q.FullyRouted,
		Unrouted:    q.Unrouted,
		WCDPs:       q.WCDPs,
		Cost:        q.FinalCost,
	}
}

// BenchRow is one benchmark design's result.
type BenchRow struct {
	Design   string `json:"design"`
	Cells    int    `json:"cells"`
	Nets     int    `json:"nets"`
	Quality         // fully_routed … moves
	Accepted int    `json:"accepted"`
	Restarts int    `json:"restarts"` // elite-migration restarts (parallel runs)

	// LayoutHash is the SHA-256 of the final layout's saved bytes (see
	// LayoutHash); like the quality fields it is bit-identical for a fixed
	// configuration, so the compare gate can prove a perf change did not
	// alter results. Empty in reports predating the field.
	LayoutHash string `json:"layout_hash,omitempty"`

	// RouteFailed is the channel-need count the initial constructive routing
	// pass left unrouted — deterministic for a fixed configuration. Omitted
	// (decoded as zero) in reports predating the field; the gate uses
	// RouteWallMS > 0 as the carries-route-fields sentinel.
	RouteFailed int `json:"route_failed,omitempty"`

	// Machine-dependent fields; excluded from exact quality comparisons.
	// The alloc counters are heap activity over the whole run divided by
	// total moves — near-deterministic for a fixed configuration (the
	// workload is), with only minor runtime-internal noise, so the compare
	// gate bounds them with a tolerance rather than requiring equality.
	WallMS          float64 `json:"wall_ms"`
	PeakMovesPerSec float64 `json:"peak_moves_per_sec"`
	AllocsPerMove   float64 `json:"allocs_per_move"`
	BytesPerMove    float64 `json:"bytes_per_move"`

	// RouteWallMS is the wall clock of the constructive routing pass alone
	// (global + detailed route phases). Omitted in reports predating the
	// field.
	RouteWallMS float64 `json:"route_wall_ms,omitempty"`
}

// RunBenchmark executes the simultaneous flow on one named design and reports
// the row. The effort's collector (if any) observes the run; a private
// Summary is layered on top to extract peak throughput.
func RunBenchmark(design string, e Effort, seed int64, tracks int) (BenchRow, error) {
	nl, err := Design(design)
	if err != nil {
		return BenchRow{}, err
	}
	a, err := ArchFor(nl, tracks)
	if err != nil {
		return BenchRow{}, err
	}
	sum := metrics.NewSummary()
	e.Metrics = metrics.Multi(e.Metrics, sum)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	opt, res, dur, err := RunSim(a, nl, e, seed, false)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return BenchRow{}, err
	}
	moves := res.Anneal.TotalMoves + res.RepairMoves
	if moves < 1 {
		moves = 1
	}
	tot := sum.Totals()
	routeDur := tot.PhaseDur[metrics.PhaseGlobalRoute] + tot.PhaseDur[metrics.PhaseDetailRoute]
	return BenchRow{
		Design:          design,
		Cells:           nl.NumCells(),
		Nets:            nl.NumNets(),
		Quality:         QualityOf(res),
		Accepted:        res.Anneal.Accepted,
		Restarts:        res.Restarts,
		LayoutHash:      LayoutHash(opt),
		RouteFailed:     res.RouteFailed,
		WallMS:          float64(dur) / float64(time.Millisecond),
		PeakMovesPerSec: tot.PeakMovesPerSec,
		AllocsPerMove:   float64(m1.Mallocs-m0.Mallocs) / float64(moves),
		BytesPerMove:    float64(m1.TotalAlloc-m0.TotalAlloc) / float64(moves),
		RouteWallMS:     float64(routeDur) / float64(time.Millisecond),
	}, nil
}

// LayoutHash returns the hex SHA-256 of the optimizer's layout as layio.Write
// saves it (placement, pinmaps and routes), so it equals the hash of the
// saved file and survives a save and reload. Two runs with the same
// configuration produce the same hash on any machine; a perf-only change
// that alters the hash has changed results.
func LayoutHash(o *core.Optimizer) string {
	h := sha256.New()
	_ = layio.Write(h, o.P, o.Rts) // writes to a hash never fail
	return hex.EncodeToString(h.Sum(nil))
}

// BenchDesigns is the default benchmark suite for cmd/bench: the test-sized
// design plus two of the paper's Table-1 designs, small enough that the
// fast-effort suite stays a CI smoke run.
func BenchDesigns() []string { return []string{"tiny", "s1", "cse"} }

// PaperBenchDesigns is the full reproduction suite behind cmd/bench's
// -suite paper flag: all five Table-1 designs plus the Figure-7 529-cell
// design. At paper effort this takes minutes, not seconds — it is meant for
// generating the reproduction tables, never for the CI smoke gate.
func PaperBenchDesigns() []string { return []string{"s1", "cse", "ex1", "bw", "s1a", "big529"} }

// WriteBenchReport writes the report as indented JSON.
func WriteBenchReport(w io.Writer, r *BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBenchReport parses a report and validates its schema tag.
func ReadBenchReport(r io.Reader) (*BenchReport, error) {
	var rep BenchReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench report: %w", err)
	}
	if rep.Schema != BenchSchema {
		return nil, fmt.Errorf("bench report: schema %q, want %q", rep.Schema, BenchSchema)
	}
	return &rep, nil
}

// CompareOptions tunes CompareBenchReports.
type CompareOptions struct {
	// WallTol is the allowed relative wall-time regression (0.25 = +25%).
	WallTol float64

	// TimingQuality switches the gate from same-configuration regression
	// checking to cross-configuration quality comparison: the current report
	// (typically a criticality-weighted run) must strictly improve the
	// geometric-mean critical path over the baseline without routing any
	// worse, at a total wall-time cost of at most wallCostTol. Per-design
	// layout-hash, critical-path, wall and alloc gates are skipped — the
	// configurations are *supposed* to differ in results — but
	// Effort/Seed/Tracks/Chains must still match, and both reports must be
	// from the same machine for the wall comparison to mean anything.
	TimingQuality bool
}

// The compare gate's fixed graces.
const (
	// wallSlackMS is an absolute grace on top of WallTol (and of
	// wallCostTol), so sub-second benchmarks on differently loaded machines
	// do not flake the gate.
	wallSlackMS = 250
	// allocTol is the allowed relative allocs/move and bytes/move
	// regression. The counters are near-deterministic, so the tolerance only
	// absorbs runtime-internal noise, not real regressions.
	allocTol = 0.25
	// allocSlack and bytesSlack are the absolute graces on top of allocTol
	// (allocs per move, bytes per move), keeping near-zero baselines from
	// flaking the gate on sub-allocation noise.
	allocSlack = 2
	bytesSlack = 256
	// wallCostTol is the allowed relative total wall-time increase in
	// TimingQuality mode (0.05 = the timing win may cost at most 5% runtime).
	wallCostTol = 0.05
)

// CompareBenchReports checks cur against base and returns one message per
// regression (empty = gate passes). Quality metrics (unrouted counts,
// critical path) are deterministic for a fixed configuration, so any
// worsening at all fails; wall time gets the configured tolerance. Comparing
// reports from different configurations is itself an error — except the
// criticality weight in TimingQuality mode, where differing is the point.
// Designs present in the baseline but missing from the current report are a
// hard failure in every mode: suite shrinkage must never mask regressions.
func CompareBenchReports(base, cur *BenchReport, opt CompareOptions) ([]string, error) {
	if base.Effort != cur.Effort || base.Seed != cur.Seed || base.Tracks != cur.Tracks || base.Chains != cur.Chains {
		return nil, fmt.Errorf("bench compare: configuration mismatch (base %s/seed %d/tracks %d/chains %d, current %s/seed %d/tracks %d/chains %d)",
			base.Effort, base.Seed, base.Tracks, base.Chains, cur.Effort, cur.Seed, cur.Tracks, cur.Chains)
	}
	if !opt.TimingQuality && base.CritWeight != cur.CritWeight {
		return nil, fmt.Errorf("bench compare: criticality weight mismatch (base %g, current %g)",
			base.CritWeight, cur.CritWeight)
	}
	if base.RouteBackend != cur.RouteBackend {
		return nil, fmt.Errorf("bench compare: route backend mismatch (base %q, current %q)",
			base.RouteBackend, cur.RouteBackend)
	}
	baseRows := make(map[string]BenchRow, len(base.Rows))
	for _, r := range base.Rows {
		baseRows[r.Design] = r
	}
	curRows := make(map[string]BenchRow, len(cur.Rows))
	for _, r := range cur.Rows {
		curRows[r.Design] = r
	}
	var regressions []string
	for _, c := range cur.Rows {
		b, ok := baseRows[c.Design]
		if !ok {
			continue // new benchmark: nothing to gate against
		}
		if c.Unrouted > b.Unrouted {
			regressions = append(regressions,
				fmt.Sprintf("%s: unrouted nets %d -> %d", c.Design, b.Unrouted, c.Unrouted))
		}
		if c.GUnrouted > b.GUnrouted {
			regressions = append(regressions,
				fmt.Sprintf("%s: globally unrouted nets %d -> %d", c.Design, b.GUnrouted, c.GUnrouted))
		}
		if opt.TimingQuality {
			// Cross-configuration comparison: results are expected to
			// differ, so the per-design hash/critical-path/wall/alloc gates
			// below do not apply. The routing gates above still do — a
			// timing win that breaks routability is no win.
			continue
		}
		// Same-configuration runs are deterministic, so a constructive-pass
		// failure increase is a real regression (armed only when the
		// baseline carries the route fields).
		if b.RouteWallMS > 0 && c.RouteFailed > b.RouteFailed {
			regressions = append(regressions,
				fmt.Sprintf("%s: constructive route failures %d -> %d", c.Design, b.RouteFailed, c.RouteFailed))
		}
		if c.WCDPs > b.WCDPs {
			regressions = append(regressions,
				fmt.Sprintf("%s: critical path %.1f ps -> %.1f ps", c.Design, b.WCDPs, c.WCDPs))
		}
		if b.LayoutHash != "" && c.LayoutHash != "" && b.LayoutHash != c.LayoutHash {
			regressions = append(regressions,
				fmt.Sprintf("%s: layout hash changed (%.12s... -> %.12s...)", c.Design, b.LayoutHash, c.LayoutHash))
		}
		if limit := b.WallMS*(1+opt.WallTol) + wallSlackMS; c.WallMS > limit {
			regressions = append(regressions,
				fmt.Sprintf("%s: wall time %.0f ms -> %.0f ms (limit %.0f ms)", c.Design, b.WallMS, c.WallMS, limit))
		}
		// Alloc gates only arm once the baseline carries the counters
		// (reports predating the fields decode them as zero).
		if b.AllocsPerMove > 0 {
			if limit := b.AllocsPerMove*(1+allocTol) + allocSlack; c.AllocsPerMove > limit {
				regressions = append(regressions,
					fmt.Sprintf("%s: allocs/move %.2f -> %.2f (limit %.2f)", c.Design, b.AllocsPerMove, c.AllocsPerMove, limit))
			}
		}
		if b.BytesPerMove > 0 {
			if limit := b.BytesPerMove*(1+allocTol) + bytesSlack; c.BytesPerMove > limit {
				regressions = append(regressions,
					fmt.Sprintf("%s: bytes/move %.0f -> %.0f (limit %.0f)", c.Design, b.BytesPerMove, c.BytesPerMove, limit))
			}
		}
	}
	for _, b := range base.Rows {
		if _, ok := curRows[b.Design]; !ok {
			regressions = append(regressions, fmt.Sprintf("%s: benchmark missing from current report", b.Design))
		}
	}
	if opt.TimingQuality {
		regressions = append(regressions, timingQualityGate(base, curRows)...)
	}
	return regressions, nil
}

// timingQualityGate is the TimingQuality-mode aggregate check: the current
// report's geometric-mean critical path over the designs both reports share
// must strictly improve on the baseline's, at a total wall-time cost of at
// most wallCostTol (both reports must come from the same machine and run for
// the wall comparison to hold).
func timingQualityGate(base *BenchReport, curRows map[string]BenchRow) []string {
	var (
		logSumBase, logSumCur float64
		wallBase, wallCur     float64
		n                     int
	)
	for _, b := range base.Rows {
		c, ok := curRows[b.Design]
		if !ok || b.WCDPs <= 0 || c.WCDPs <= 0 {
			continue
		}
		logSumBase += math.Log(b.WCDPs)
		logSumCur += math.Log(c.WCDPs)
		wallBase += b.WallMS
		wallCur += c.WallMS
		n++
	}
	if n == 0 {
		return []string{"timing-quality gate: no comparable designs with positive critical paths"}
	}
	var out []string
	gmBase := math.Exp(logSumBase / float64(n))
	gmCur := math.Exp(logSumCur / float64(n))
	if gmCur >= gmBase {
		out = append(out, fmt.Sprintf(
			"timing-quality gate: geomean critical path did not improve (%.1f ps -> %.1f ps over %d designs)",
			gmBase, gmCur, n))
	}
	if limit := wallBase*(1+wallCostTol) + wallSlackMS; wallCur > limit {
		out = append(out, fmt.Sprintf(
			"timing-quality gate: total wall time %.0f ms -> %.0f ms exceeds the %.0f%% cost budget (limit %.0f ms)",
			wallBase, wallCur, wallCostTol*100, limit))
	}
	return out
}

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

	// Criticality-weighted timing term settings the suite ran with (see
	// core.Config). Zero — and omitted from the JSON — for the default
	// engine, so pre-extension reports decode and compare unchanged.
	CritWeight  float64 `json:"crit_weight,omitempty"`
	CritBias    float64 `json:"crit_bias,omitempty"`
	CritDamping float64 `json:"crit_damping,omitempty"`

	// Detailed-router backend the suite ran with (see droute.Backend). Empty
	// — and omitted from the JSON — for the default ordered router, so
	// pre-extension reports decode and compare unchanged. RouteWorkers is
	// deliberately absent: it is scheduling-only and never affects results.
	RouteBackend string `json:"route_backend,omitempty"`
	RouteIters   int    `json:"route_iters,omitempty"`
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

	// LayoutHash fingerprints the final placement, pinmaps and routes; like
	// the quality fields it is bit-identical for a fixed configuration, so
	// the compare gate can prove a perf change did not alter results. Empty
	// in reports predating the field.
	LayoutHash string `json:"layout_hash,omitempty"`

	// RouteFailed is the channel-need count the initial constructive routing
	// pass left unrouted — deterministic for a fixed configuration, and the
	// quality metric the route-scaling gate holds cross-backend runs to.
	// Omitted (decoded as zero) in reports predating the field; the gates
	// use RouteWallMS > 0 as the carries-route-fields sentinel.
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
	// (global + detailed route phases), the series the route-scaling gate
	// compares across backends. Omitted in reports predating the field.
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
	routeDur := sum.Totals().PhaseDur[metrics.PhaseGlobalRoute] +
		sum.Totals().PhaseDur[metrics.PhaseDetailRoute]
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
		PeakMovesPerSec: sum.PeakMovesPerSec(),
		AllocsPerMove:   float64(m1.Mallocs-m0.Mallocs) / float64(moves),
		BytesPerMove:    float64(m1.TotalAlloc-m0.TotalAlloc) / float64(moves),
		RouteWallMS:     float64(routeDur) / float64(time.Millisecond),
	}, nil
}

// LayoutHash returns a SHA-256 fingerprint of the optimizer's final layout:
// every cell's slot and pinmap plus every net's complete route descriptor.
// Two runs with the same configuration produce the same hash on any machine;
// a perf-only change that alters the hash has changed results.
func LayoutHash(o *core.Optimizer) string {
	h := sha256.New()
	for id, loc := range o.P.Loc {
		fmt.Fprintf(h, "c%d:%d,%d,%d;", id, loc.Row, loc.Col, o.P.Pm[id])
	}
	for id := range o.Rts {
		r := &o.Rts[id]
		fmt.Fprintf(h, "n%d:%v,%v,%d,%d,%d,%d|", id, r.Global, r.HasTrunk, r.TrunkCol, r.TrunkTrack, r.VLo, r.VHi)
		for _, ca := range r.Chans {
			fmt.Fprintf(h, "%d,%d,%d,%d,%d,%d;", ca.Ch, ca.Lo, ca.Hi, ca.Track, ca.SegLo, ca.SegHi)
		}
	}
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
	// WallSlackMS is an absolute grace on top of WallTol, so sub-second
	// benchmarks on differently loaded machines do not flake the gate.
	WallSlackMS float64
	// AllocTol is the allowed relative allocs/move and bytes/move regression.
	// The counters are near-deterministic, so the tolerance only absorbs
	// runtime-internal noise, not real regressions.
	AllocTol float64
	// AllocSlack / BytesSlack are the absolute graces on top of AllocTol
	// (allocs per move, bytes per move), keeping near-zero baselines from
	// flaking the gate on sub-allocation noise.
	AllocSlack float64
	BytesSlack float64

	// TimingQuality switches the gate from same-configuration regression
	// checking to cross-configuration quality comparison: the current report
	// (typically a criticality-weighted run) must strictly improve the
	// geometric-mean critical path over the baseline without routing any
	// worse, at a total wall-time cost of at most WallCostTol. Per-design
	// layout-hash, critical-path, wall and alloc gates are skipped — the
	// configurations are *supposed* to differ in results — but
	// Effort/Seed/Tracks/Chains must still match, and both reports must be
	// from the same machine for the wall comparison to mean anything.
	TimingQuality bool
	// WallCostTol is the allowed relative total wall-time increase in
	// TimingQuality mode (0.05 = the timing win may cost at most 5% runtime).
	WallCostTol float64

	// RouteGate switches the gate to cross-backend route-scaling comparison:
	// the current report (typically a lagrange-backend run) must be
	// quality-neutral — no design routes any worse overall and no design's
	// constructive pass fails more channel needs — at a total route wall
	// time no higher than the baseline backend's (plus RouteWallSlackMS).
	// Per-design layout-hash, critical-path, wall and alloc gates are
	// skipped — different backends are *supposed* to produce different
	// layouts — and the route backend/iters headers may differ, but
	// Effort/Seed/Tracks/Chains must still match, and both reports must be
	// from the same machine for the wall comparison to mean anything.
	RouteGate bool
	// RouteWallSlackMS is the absolute grace on the total route-wall
	// comparison in RouteGate mode, keeping sub-millisecond route phases on
	// small suites from flaking the gate.
	RouteWallSlackMS float64
}

// DefaultCompareOptions returns the CI gate settings: fail on >25% wall-time
// regression (plus 250 ms absolute slack), >25% allocs/bytes-per-move
// regression (plus small absolute slack), any quality worsening, or a layout
// hash mismatch.
func DefaultCompareOptions() CompareOptions {
	return CompareOptions{WallTol: 0.25, WallSlackMS: 250, AllocTol: 0.25, AllocSlack: 2, BytesSlack: 256}
}

// TimingQualityCompareOptions returns the nightly paper-suite gate settings:
// the criticality-weighted run must improve geomean critical path at a total
// wall cost of at most 5% (plus the usual absolute slack for sub-second
// suites).
func TimingQualityCompareOptions() CompareOptions {
	return CompareOptions{TimingQuality: true, WallCostTol: 0.05, WallSlackMS: 250}
}

// RouteGateCompareOptions returns the route-scaling gate settings: the
// candidate backend must be quality-neutral on routing (per-design unrouted
// counts and constructive-pass failures no worse) at a total route wall time
// no higher than the baseline's plus 50 ms of noise grace.
func RouteGateCompareOptions() CompareOptions {
	return CompareOptions{RouteGate: true, RouteWallSlackMS: 50}
}

// CompareBenchReports checks cur against base and returns one message per
// regression (empty = gate passes). Quality metrics (unrouted counts,
// critical path) are deterministic for a fixed configuration, so any
// worsening at all fails; wall time gets the configured tolerance. Comparing
// reports from different configurations is itself an error — except the
// criticality fields in TimingQuality mode, where differing is the point.
// Designs present in the baseline but missing from the current report are a
// hard failure in every mode: suite shrinkage must never mask regressions.
func CompareBenchReports(base, cur *BenchReport, opt CompareOptions) ([]string, error) {
	if base.Effort != cur.Effort || base.Seed != cur.Seed || base.Tracks != cur.Tracks || base.Chains != cur.Chains {
		return nil, fmt.Errorf("bench compare: configuration mismatch (base %s/seed %d/tracks %d/chains %d, current %s/seed %d/tracks %d/chains %d)",
			base.Effort, base.Seed, base.Tracks, base.Chains, cur.Effort, cur.Seed, cur.Tracks, cur.Chains)
	}
	if !opt.TimingQuality &&
		(base.CritWeight != cur.CritWeight || base.CritBias != cur.CritBias || base.CritDamping != cur.CritDamping) {
		return nil, fmt.Errorf("bench compare: criticality configuration mismatch (base %g/%g/%g, current %g/%g/%g)",
			base.CritWeight, base.CritBias, base.CritDamping, cur.CritWeight, cur.CritBias, cur.CritDamping)
	}
	if !opt.RouteGate &&
		(base.RouteBackend != cur.RouteBackend || base.RouteIters != cur.RouteIters) {
		return nil, fmt.Errorf("bench compare: route backend configuration mismatch (base %q/iters %d, current %q/iters %d)",
			base.RouteBackend, base.RouteIters, cur.RouteBackend, cur.RouteIters)
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
		if opt.RouteGate {
			// Cross-backend comparison: layouts are expected to differ, but
			// the candidate backend must not leave more of any design's
			// constructive pass unrouted. Armed only when the baseline
			// carries the route fields.
			if b.RouteWallMS > 0 && c.RouteFailed > b.RouteFailed {
				regressions = append(regressions,
					fmt.Sprintf("%s: constructive route failures %d -> %d", c.Design, b.RouteFailed, c.RouteFailed))
			}
			continue
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
		if limit := b.WallMS*(1+opt.WallTol) + opt.WallSlackMS; c.WallMS > limit {
			regressions = append(regressions,
				fmt.Sprintf("%s: wall time %.0f ms -> %.0f ms (limit %.0f ms)", c.Design, b.WallMS, c.WallMS, limit))
		}
		// Alloc gates only arm once the baseline carries the counters
		// (reports predating the fields decode them as zero).
		if b.AllocsPerMove > 0 {
			if limit := b.AllocsPerMove*(1+opt.AllocTol) + opt.AllocSlack; c.AllocsPerMove > limit {
				regressions = append(regressions,
					fmt.Sprintf("%s: allocs/move %.2f -> %.2f (limit %.2f)", c.Design, b.AllocsPerMove, c.AllocsPerMove, limit))
			}
		}
		if b.BytesPerMove > 0 {
			if limit := b.BytesPerMove*(1+opt.AllocTol) + opt.BytesSlack; c.BytesPerMove > limit {
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
		regressions = append(regressions, timingQualityGate(base, cur, baseRows, curRows, opt)...)
	}
	if opt.RouteGate {
		regressions = append(regressions, routeScalingGate(base, curRows, opt)...)
	}
	return regressions, nil
}

// routeScalingGate is the RouteGate-mode aggregate check: over the designs
// both reports share (and whose baseline rows carry route timings), the
// current report's total constructive-route wall time must not exceed the
// baseline's plus the slack. Reports without route fields fail closed — a
// gate that silently compares nothing would pass any regression.
func routeScalingGate(base *BenchReport, curRows map[string]BenchRow, opt CompareOptions) []string {
	var wallBase, wallCur float64
	n := 0
	for _, b := range base.Rows {
		c, ok := curRows[b.Design]
		if !ok || b.RouteWallMS <= 0 {
			continue
		}
		wallBase += b.RouteWallMS
		wallCur += c.RouteWallMS
		n++
	}
	if n == 0 {
		return []string{"route-scaling gate: no comparable designs with route timings"}
	}
	if limit := wallBase + opt.RouteWallSlackMS; wallCur > limit {
		return []string{fmt.Sprintf(
			"route-scaling gate: total route wall time %.1f ms -> %.1f ms exceeds the baseline plus %.0f ms slack (limit %.1f ms)",
			wallBase, wallCur, opt.RouteWallSlackMS, limit)}
	}
	return nil
}

// timingQualityGate is the TimingQuality-mode aggregate check: the current
// report's geometric-mean critical path over the designs both reports share
// must strictly improve on the baseline's, at a total wall-time cost of at
// most WallCostTol (both reports must come from the same machine and run for
// the wall comparison to hold).
func timingQualityGate(base, cur *BenchReport, baseRows, curRows map[string]BenchRow, opt CompareOptions) []string {
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
	if limit := wallBase*(1+opt.WallCostTol) + opt.WallSlackMS; wallCur > limit {
		out = append(out, fmt.Sprintf(
			"timing-quality gate: total wall time %.0f ms -> %.0f ms exceeds the %.0f%% cost budget (limit %.0f ms)",
			wallBase, wallCur, opt.WallCostTol*100, limit))
	}
	return out
}

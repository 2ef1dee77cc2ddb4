// Package exper regenerates every table and figure of the paper's evaluation
// (§4): Table 1 (timing improvement of simultaneous over sequential layout),
// Table 2 (minimum tracks per channel for 100% wirability), Figure 6
// (annealing dynamics), Figure 7 (the 529-cell design routed to completion),
// and the runtime-ratio observation. It is shared by cmd/paper and the
// repository benchmarks.
package exper

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/droute"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/render"
	"repro/internal/seq"
	"repro/internal/timing"
)

// Effort scales how hard the optimizers work. Fast keeps unit-test and
// development turnaround short; Paper is the setting used to regenerate the
// reported numbers.
type Effort struct {
	Name              string
	PlaceMovesPerCell int
	PlaceMaxTemps     int
	CoreMovesPerCell  int
	CoreMaxTemps      int
	RouteAttempts     int

	// Chains selects parallel portfolio annealing for the simultaneous flow
	// (1 chain = the serial engine). The constructors set Chains explicitly
	// so that a constructed Effort is always fully specified; callers
	// (cmd/paper -chains, cmd/bench -chains) override.
	Chains int

	// CritWeight is the criticality-weighted timing term for the
	// simultaneous flow (see core.Config). Zero — the term off — in both
	// constructors; callers opt in (cmd/bench -crit-weight, cmd/paper
	// -crit-weight).
	CritWeight float64

	// RouteBackend selects the detailed-router backend for both flows
	// ("", "ordered", "negotiated" or "lagrange"; see droute.Backend). Empty
	// — the ordered backend — in both constructors; callers opt in
	// (cmd/bench / cmd/paper -route-backend).
	RouteBackend string

	// Metrics, when non-nil, is threaded into every flow the effort runs
	// (core and seq). It must be safe for concurrent use: table rows run
	// concurrently and parallel chains share it.
	Metrics metrics.Collector
}

// FastEffort is sized for tests and smoke runs.
func FastEffort() Effort {
	return Effort{Name: "fast", PlaceMovesPerCell: 6, PlaceMaxTemps: 80,
		CoreMovesPerCell: 6, CoreMaxTemps: 80, RouteAttempts: 4,
		Chains: 1}
}

// PaperEffort is sized for regenerating the reported tables.
func PaperEffort() Effort {
	return Effort{Name: "paper", PlaceMovesPerCell: 14, PlaceMaxTemps: 200,
		CoreMovesPerCell: 12, CoreMaxTemps: 180, RouteAttempts: 10,
		Chains: 1}
}

// DefaultTracks is the generous channel capacity used for the timing
// comparison (Table 1), chosen above every design's sequential minimum in
// Table 2 so both flows route completely.
const DefaultTracks = 38

// ArchFor sizes a row-based architecture for a netlist: 8 module rows (the
// era's A1010-class geometry) at roughly 55% slot utilization, wider rows for
// the Figure-7-class design.
func ArchFor(nl *netlist.Netlist, tracks int) (*arch.Arch, error) {
	return arch.New(archParams(nl, tracks))
}

// archParams is ArchFor's geometry, which every experiment's array shares.
func archParams(nl *netlist.Netlist, tracks int) arch.Params {
	rows := 8
	if nl.NumCells() > 350 {
		rows = 12
	}
	cols := (nl.NumCells()*18/10 + rows - 1) / rows
	if cols < 8 {
		cols = 8
	}
	return arch.Default(rows, cols, tracks)
}

// constrainedArchFor builds a deliberately tight instance for the dynamics
// figure: channel capacity near the designs' Table-2 minima and reduced
// vertical tracks — enough to route, but with real global- and
// detailed-routing contention along the way.
func constrainedArchFor(nl *netlist.Netlist) (*arch.Arch, error) {
	p := archParams(nl, 24)
	p.VTracks = 3
	return arch.New(p)
}

// Design loads a named benchmark profile.
func Design(name string) (*netlist.Netlist, error) {
	p, ok := netgen.Profile(name)
	if !ok {
		return nil, fmt.Errorf("exper: unknown design %q", name)
	}
	return netgen.Generate(p)
}

// TableDesigns lists the five Table-1/Table-2 designs in paper order.
func TableDesigns() []string { return []string{"s1", "cse", "ex1", "bw", "s1a"} }

// runSeq executes the sequential flow.
func runSeq(a *arch.Arch, nl *netlist.Netlist, e Effort, seed int64) (*seq.Result, time.Duration, error) {
	start := time.Now()
	res, err := seq.Run(a, nl, seq.Config{
		Seed: seed,
		Place: place.Config{
			Seed:         seed,
			MovesPerCell: e.PlaceMovesPerCell,
			MaxTemps:     e.PlaceMaxTemps,
		},
		RouteAttempts: e.RouteAttempts,
		RouteBackend:  droute.Backend(e.RouteBackend),
		Metrics:       e.Metrics,
	})
	return res, time.Since(start), err
}

// RunSim executes the simultaneous flow at the given effort (parallel
// portfolio annealing when the effort requests more than one chain), with the
// effort's metrics collector threaded through the optimizer. Exported for
// cmd/bench and for tests that assert the Chains plumbing end to end.
func RunSim(a *arch.Arch, nl *netlist.Netlist, e Effort, seed int64, wirabilityOnly bool) (*core.Optimizer, core.Result, time.Duration, error) {
	start := time.Now()
	o, err := core.New(a, nl, core.Config{
		Seed:          seed,
		MovesPerCell:  e.CoreMovesPerCell,
		MaxTemps:      e.CoreMaxTemps,
		DisableTiming: wirabilityOnly,
		Chains:        e.Chains,
		CritWeight:    e.CritWeight,
		RouteBackend:  droute.Backend(e.RouteBackend),
		Metrics:       e.Metrics,
	})
	if err != nil {
		return nil, core.Result{}, 0, err
	}
	o, res := o.RunParallel()
	return o, res, time.Since(start), nil
}

// Table1Row is one line of the paper's Table 1 plus the supporting detail we
// report alongside: absolute delays and the agreement of the post-layout
// check (timing.Verify, the in-loop Elmore model at wire load 1.10, so it
// lies in [0.909, 1] by construction).
type Table1Row struct {
	Design     string
	Cells      int
	SeqWCD     float64 // ps, sequential flow, fully routed
	SimWCD     float64 // ps, simultaneous flow, fully routed
	ImprovePct float64 // paper's "% improvement"
	Agreement  float64 // in-loop WCD over timing.Verify's on the sim layout
	SeqTime    time.Duration
	SimTime    time.Duration
	Err        string // non-empty when a flow failed to route
}

// Table1 regenerates the timing-improvement table on the given designs.
// Designs are independent and run concurrently; results stay in input order
// and are deterministic for a given seed.
func Table1(designs []string, e Effort, seed int64) ([]Table1Row, error) {
	rows := make([]Table1Row, len(designs))
	errs := make([]error, len(designs))
	var wg sync.WaitGroup
	for di, name := range designs {
		wg.Add(1)
		go func(di int, name string) {
			defer wg.Done()
			row, err := table1Row(name, e, seed)
			rows[di], errs[di] = row, err
		}(di, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func table1Row(name string, e Effort, seed int64) (Table1Row, error) {
	nl, err := Design(name)
	if err != nil {
		return Table1Row{}, err
	}
	row := Table1Row{Design: name, Cells: nl.NumCells()}

	aSeq, err := ArchFor(nl, DefaultTracks)
	if err != nil {
		return row, err
	}
	sres, sdur, err := runSeq(aSeq, nl, e, seed)
	if err != nil {
		return row, err
	}
	row.SeqTime = sdur
	if !sres.FullyRouted {
		row.Err = fmt.Sprintf("sequential flow left %d nets unrouted", sres.UnroutedNets)
		return row, nil
	}
	row.SeqWCD = sres.WCD

	aSim, err := ArchFor(nl, DefaultTracks)
	if err != nil {
		return row, err
	}
	o, cres, cdur, err := RunSim(aSim, nl, e, seed, false)
	if err != nil {
		return row, err
	}
	row.SimTime = cdur
	if !cres.FullyRouted {
		row.Err = fmt.Sprintf("simultaneous flow left %d nets unrouted", cres.D)
		return row, nil
	}
	row.SimWCD = cres.WCD
	row.ImprovePct = 100 * (row.SeqWCD - row.SimWCD) / row.SeqWCD
	if v, err := timing.Verify(o.P, o.Rts, cres.WCD); err == nil {
		row.Agreement = v.Agreement
	}
	return row, nil
}

// Table2Row is one line of the paper's Table 2.
type Table2Row struct {
	Design     string
	Cells      int
	SeqTracks  int // minimum tracks/channel for 100% wirability, sequential
	SimTracks  int // same, simultaneous
	ImprovePct float64
}

// Table2 regenerates the wirability table: for each design, the minimum
// channel capacity at which each flow still achieves 100% routing, found by
// bisection (the paper reduced tracks per channel "to the point that
// [each] tool failed to meet 100% wirability").
func Table2(designs []string, e Effort, seed int64) ([]Table2Row, error) {
	rows := make([]Table2Row, len(designs))
	errs := make([]error, len(designs))
	var wg sync.WaitGroup
	for di, name := range designs {
		wg.Add(1)
		go func(di int, name string) {
			defer wg.Done()
			rows[di], errs[di] = table2Row(name, e, seed)
		}(di, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func table2Row(name string, e Effort, seed int64) (Table2Row, error) {
	nl, err := Design(name)
	if err != nil {
		return Table2Row{}, err
	}
	seqMin, err := minTracks(nl, e, func(a *arch.Arch, s int64) (bool, error) {
		res, _, err := runSeq(a, nl, e, s)
		if err != nil {
			return false, err
		}
		return res.FullyRouted, nil
	}, seed)
	if err != nil {
		return Table2Row{}, err
	}
	simMin, err := minTracks(nl, e, func(a *arch.Arch, s int64) (bool, error) {
		_, res, _, err := RunSim(a, nl, e, s, true)
		if err != nil {
			return false, err
		}
		return res.FullyRouted, nil
	}, seed)
	if err != nil {
		return Table2Row{}, err
	}
	row := Table2Row{Design: name, Cells: nl.NumCells(), SeqTracks: seqMin, SimTracks: simMin}
	if seqMin > 0 {
		row.ImprovePct = 100 * float64(seqMin-simMin) / float64(seqMin)
	}
	return row, nil
}

// minTracks finds the smallest tracks-per-channel at which try reports
// success. Annealing makes success slightly noisy rather than strictly
// monotone in capacity, so each probe gets a second chance with a different
// seed, bisection narrows the range, and a final descending scan pushes past
// any non-monotone pocket the bisection landed on. Returns 0 if even the
// upper bound fails.
func minTracks(nl *netlist.Netlist, e Effort, try func(*arch.Arch, int64) (bool, error), seed int64) (int, error) {
	const hi = 44
	ok := func(tracks int) (bool, error) {
		a, err := ArchFor(nl, tracks)
		if err != nil {
			return false, err
		}
		good, err := try(a, seed)
		if err != nil || good {
			return good, err
		}
		return try(a, seed+9091)
	}
	top, err := ok(hi)
	if err != nil {
		return 0, err
	}
	if !top {
		return 0, nil
	}
	lo, high := 1, hi // invariant: high succeeds
	for lo < high {
		mid := (lo + high) / 2
		good, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if good {
			high = mid
		} else {
			lo = mid + 1
		}
	}
	// Descend below the bisection answer, tolerating up to three consecutive
	// failures before concluding the floor is real (annealing noise creates
	// pockets where t tracks fail but t-1 succeed).
	fails := 0
	for t := high - 1; t >= 1 && fails < 3; t-- {
		good, err := ok(t)
		if err != nil {
			return 0, err
		}
		if good {
			high = t
			fails = 0
		} else {
			fails++
		}
	}
	return high, nil
}

// Figure6 returns the per-temperature dynamics trace of a simultaneous run
// on the named design. The run uses a resource-constrained instance (channel
// capacity near the design's Table-2 minimum, halved vertical tracks) so
// that all three phases of the paper's figure are exercised: with generous
// resources the global router never fails and the %globally-unrouted series
// is trivially zero.
func Figure6(design string, e Effort, seed int64) ([]core.DynamicsSample, error) {
	nl, err := Design(design)
	if err != nil {
		return nil, err
	}
	a, err := constrainedArchFor(nl)
	if err != nil {
		return nil, err
	}
	_, res, _, err := RunSim(a, nl, e, seed, false)
	if err != nil {
		return nil, err
	}
	return res.Dynamics, nil
}

// Figure7Result reports the large-design completion run.
type Figure7Result struct {
	Design      string
	Cells       int
	FullyRouted bool
	WCD         float64
	Elapsed     time.Duration
	Rendered    string // ASCII rendering of the finished layout (the figure itself)
}

// Figure7 runs the simultaneous tool on the 529-cell design to 100% routing.
// The paper spent 8 hours of 1994 hardware on this run; an effort floor keeps
// low-effort callers from starving it below the convergence point.
func Figure7(e Effort, seed int64) (Figure7Result, error) {
	if e.CoreMovesPerCell < 8 {
		e.CoreMovesPerCell = 8
	}
	if e.CoreMaxTemps < 140 {
		e.CoreMaxTemps = 140
	}
	nl, err := Design("big529")
	if err != nil {
		return Figure7Result{}, err
	}
	a, err := ArchFor(nl, DefaultTracks)
	if err != nil {
		return Figure7Result{}, err
	}
	o, res, dur, err := RunSim(a, nl, e, seed, false)
	if err != nil {
		return Figure7Result{}, err
	}
	return Figure7Result{
		Design:      "big529",
		Cells:       nl.NumCells(),
		FullyRouted: res.FullyRouted,
		WCD:         res.WCD,
		Elapsed:     dur,
		Rendered:    render.ASCII(o.P, o.Rts),
	}, nil
}

// RuntimeRatio measures the sequential and simultaneous wall-clock on one
// design (the paper reports roughly 1 hour vs 3–4 hours, i.e. a 3–4× ratio).
func RuntimeRatio(design string, e Effort, seed int64) (seqDur, simDur time.Duration, err error) {
	nl, err := Design(design)
	if err != nil {
		return 0, 0, err
	}
	a, err := ArchFor(nl, DefaultTracks)
	if err != nil {
		return 0, 0, err
	}
	_, seqDur, err = runSeq(a, nl, e, seed)
	if err != nil {
		return 0, 0, err
	}
	_, _, simDur, err = RunSim(a, nl, e, seed, false)
	return seqDur, simDur, err
}

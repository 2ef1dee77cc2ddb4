// Package core implements the paper's contribution: performance-driven
// simultaneous placement, global routing and detailed routing for row-based
// FPGAs (Nag & Rutenbar, DAC 1994, §3).
//
// A single simulated annealing optimization manipulates all the actors of
// the layout concurrently. The state is a legal placement plus a pinmap
// choice per cell plus a (possibly incomplete) segment assignment per net;
// the move set is cell swaps/translations and pinmap reassignments; every
// move rips up the nets on the perturbed cells and triggers incremental
// global and detailed rerouting of all currently-unroutable nets; the cost is
//
//	Cost = Wg·G + Wd·D + Wt·T
//
// with G = globally-unroutable net count, D = nets lacking a complete
// detailed route (D ⊇ G), and T the worst-case path delay maintained by an
// incremental, levelized timing analysis (Elmore RC-tree delays once a net is
// physically embedded, spatial-extent estimates before). There is no
// wirelength term: short wires emerge constructively from the routers'
// wastage/segment-count preferences. Weights are renormalized adaptively at
// temperature boundaries.
package core

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/anneal"
	"repro/internal/arch"
	"repro/internal/droute"
	"repro/internal/fabric"
	"repro/internal/groute"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/timing"
)

// Config tunes the simultaneous optimizer.
type Config struct {
	Seed         int64
	MovesPerCell int // moves per temperature = MovesPerCell × #cells (default 12)
	MaxTemps     int // temperature cap (default 300)

	// DisableTiming drops the timing term, yielding a pure wirability
	// optimization (used by the Table-2 sweep). The cost weights themselves
	// are not settings: they are renormalized adaptively each temperature
	// (paper §3.2).
	DisableTiming bool

	RepairPasses int // zero-temperature routability repair passes (default 6)

	// RouteBackend selects the algorithm of the initial constructive full
	// routing pass: the paper's ordered single-pass router (empty or
	// droute.BackendOrdered — the default, bit-identical to the
	// pre-extension engine), the negotiated-congestion router
	// (droute.BackendNegotiated), or the Lagrangian-relaxation net-parallel
	// router (droute.BackendLagrange), each at its own iteration cap. The
	// in-loop incremental rerouting is backend-independent. Every backend is
	// deterministic for a fixed Seed regardless of GOMAXPROCS.
	RouteBackend droute.Backend

	// DisablePinmapMoves removes pinmap reassignment from the move set
	// (ablation: quantifies what the paper's "Cell Pin Assignments" state
	// component buys).
	DisablePinmapMoves bool

	// DCFraction is the per-missing-channel surcharge inside the D term
	// (default 0.35; negative disables it). The paper defines D as a bare
	// net count; the surcharge gives the annealer a gradient toward full
	// detailed routing and is ablatable.
	DCFraction float64

	// CritWeight enables criticality-weighted timing-driven annealing — the
	// critical-path-aware extension of the paper's single-worst-path T term.
	// A second timing component, Σ_nets crit(n)·maxSinkDelay(n), joins the
	// cost with its own adaptively renormalized weight, so moves that slow
	// many near-critical paths are penalized even while the single worst path
	// is unchanged. Per-net criticalities are extracted from the incremental
	// STA once per temperature and exponentially damped (critDamping); a
	// critBias share of swap moves draws its cell from nets at or above
	// critThreshold. The per-move cost of the term is a handful of float ops.
	// CritWeight scales the term's share of the normalization relative to
	// the timing term. 0 (the default) disables the machinery entirely: no
	// extra state, no extra RNG draws, bit-identical fixed-seed results for
	// every pre-existing configuration.
	CritWeight float64

	// Chains selects parallel portfolio annealing: K independent chains run
	// concurrently and exchange state at synchronization barriers (losers
	// restart from a clone of the champion). 0 or 1 keeps the serial engine
	// with bit-identical behavior for a fixed seed. Up to GOMAXPROCS chains
	// step concurrently; results for a fixed (Seed, Chains, SyncTemps) are
	// deterministic regardless of GOMAXPROCS.
	Chains int

	// SyncTemps is the number of temperatures between chain synchronization
	// barriers (default 8).
	SyncTemps int

	// Metrics, when non-nil, receives per-temperature, per-phase and
	// per-chain observability records. It must be safe for concurrent use
	// (parallel chains share it). nil disables collection entirely: the move
	// loop then performs no collector calls and allocates nothing extra.
	// Collection never affects results.
	Metrics metrics.Collector

	// Cancel, when non-nil, requests early termination: the serial engine
	// polls it at temperature boundaries, the parallel engine additionally at
	// synchronization barriers, and the repair phase between passes. Once the
	// channel closes the run stops at the next boundary, skips the repair
	// phase, and reports Result.Cancelled with the consistent state of the
	// last completed temperature. The hook is free when unset: a nil channel
	// adds no per-move work, no allocations and no RNG draws, so results are
	// bit-identical with or without the field. Closing the channel is the only
	// supported signal (send never unblocks more than one poll); to drive it
	// from a context.Context, pass ctx.Done().
	Cancel <-chan struct{}
}

// The engine's fixed constants. Keep each a separate operand where it is
// used: Go folds constant sub-expressions exactly, so two of them meeting in
// one expression would round once where run-time arithmetic rounds twice.
const (
	pinmapProb    = 0.15 // fraction of moves that reassign a pinmap
	routeGamma    = 1.0  // emphasis of the routing terms before renormalization
	timingGamma   = 1.0  // emphasis of the timing terms before renormalization
	critDamping   = 0.6  // crit ← damping·crit + (1-damping)·instantaneous
	critBias      = 0.25 // share of swap moves drawn from near-critical cells
	critThreshold = 0.75 // damped criticality at which a net is near-critical
)

func (c *Config) setDefaults() {
	if c.MovesPerCell <= 0 {
		c.MovesPerCell = 12
	}
	if c.MaxTemps <= 0 {
		c.MaxTemps = 300
	}
	if c.RepairPasses <= 0 {
		c.RepairPasses = 6
	}
	if c.DCFraction == 0 {
		c.DCFraction = 0.35
	}
	if c.DCFraction < 0 {
		c.DCFraction = 0
	}
	if c.CritWeight < 0 {
		c.CritWeight = 0
	}
}

// DynamicsSample is one temperature's activity snapshot — the series plotted
// in the paper's Figure 6.
type DynamicsSample struct {
	Step             int
	Temp             float64
	CellsPerturbed   float64 // fraction of cells whose location/pinmap changed
	GlobalUnrouted   float64 // fraction of nets with no global route (G/#nets)
	Unrouted         float64 // fraction of nets lacking complete detailed routing (D/#nets)
	WCD              float64 // current worst-case delay, ps
	Cost             float64
	AcceptRatio      float64
	MovesAtTemp      int
	AcceptedMovesSum int
}

// Result reports a finished simultaneous place-and-route run.
type Result struct {
	G, D         int     // final unrouted counts (0,0 = 100% routed)
	WCD          float64 // final worst-case delay per the in-loop model
	FullyRouted  bool
	Anneal       anneal.Result
	Dynamics     []DynamicsSample
	RepairMoves  int
	RepairFixed  int
	FinalCost    float64
	CriticalPath []int32
	Cancelled    bool // run cut short by Config.Cancel (repair skipped)

	// RouteFailed is the number of channel needs the initial constructive
	// routing pass (Config.RouteBackend) left unrouted — the starting debt
	// the annealer then works off.
	RouteFailed int

	// Parallel-run report; zero values on the serial path.
	Chains           int       // number of annealing chains (0 or 1 = serial)
	Champion         int       // winning chain index
	Restarts         int       // loser restarts performed at sync barriers
	ChainCosts       []float64 // final annealing cost per chain
	ChampionSwitches int       // barriers at which the champion index changed
}

// Optimizer is the simultaneous place-and-route engine. It implements
// anneal.Problem; most callers just use Run.
type Optimizer struct {
	A   *arch.Arch
	NL  *netlist.Netlist
	P   *layout.Placement
	F   *fabric.Fabric
	Rts []fabric.NetRoute
	An  *timing.Analyzer

	cfg Config

	g, d       int // current G and D counts
	dc         int // missing detailed channel routes across globally routed nets
	wg, wd, wt float64

	initRouteFailed int // channel needs the initial constructive route left unrouted

	// Move journal (valid between Propose and Accept/Reject).
	moveKind     moveKind
	swapA        layout.Loc
	swapB        layout.Loc
	pmCell       int32
	pmOld        uint8
	journal      []jEntry
	jOldG, jOldD int
	jOldDC       int
	netStamp     []uint32
	epoch        uint32

	// The unrouted list: every net lacking a complete detailed route, in
	// cascade order (estLen descending, then id ascending), where estLen[net]
	// is the net's EstLength, refreshed when a move rips it. A move builds
	// the next list in spare and leaves the old one there, so Reject swaps
	// the two back. ripped is the move's re-keyed ripped nets, in order.
	unrouted []int32
	spare    []int32
	ripped   []int32
	estLen   []float64

	// The wake index (wake.go): per channel and for the vertical list, what
	// the listed nets are stuck on, live iff an entry's generation is its
	// net's netGen; watchGen is the generation counter. woke[net] == epoch
	// marks the nets this move's rip-up woke, and needHead[net] is then the
	// first of their recorded needs in needs. hstr (per channel) and vstr
	// are the move's stretches.
	hwatch   [][]watch
	vwatch   []watch
	netGen   []uint64
	watchGen uint64
	woke     []uint32
	needHead []int32
	needs    []wokeNeed
	hstr     [][]stretch
	vstr     []stretch

	// fitTests counts the fabric-wide fit tests (HFit and VFit calls) that
	// mayRoute makes in the cascade. stepHook, nil outside tests, runs at
	// each woken listed net's turn before its fit test (turn true) and after
	// each allocation the cascade makes (turn false), so that tests can
	// follow the stretch rule step by step.
	fitTests int64
	stepHook func(id int32, turn bool)

	// Dynamics instrumentation.
	cellStamp     []uint32
	cellEpochBase uint32
	perturbed     int

	dynamics []DynamicsSample
	dcalc    timing.DelayCalc

	// Criticality-weighted timing term (CritWeight extension). All nil/zero
	// when the extension is off; none of it is touched then, keeping the
	// default path bit-identical to the pre-extension engine.
	crit      *timing.Criticality
	netMaxD   []float64 // per net: max sink delay currently in the analyzer
	critSum   float64   // Σ crit(n)·netMaxD[n], maintained incrementally
	wcr       float64   // adaptive weight of the criticality term
	critCells []int32   // cells on near-critical nets (rebuilt per temperature)
	critStamp []uint32  // per cell: critEpoch when added to critCells
	critEpoch uint32
	jCritSum  float64 // journaled critSum (valid during an open move)

	// Observability state: the chain index this optimizer is annealing as,
	// and the work snapshot taken at the last temperature boundary (for
	// per-temperature deltas). Only read when cfg.Metrics is non-nil.
	chain    int
	lastWork metrics.Work
}

type moveKind uint8

const (
	moveNone moveKind = iota
	moveSwap
	movePinmap
)

// New builds the initial state: a random legal placement, a constructive
// first routing pass, and a fully initialized timing view.
func New(a *arch.Arch, nl *netlist.Netlist, cfg Config) (*Optimizer, error) {
	cfg.setDefaults()
	backend, err := droute.ParseBackend(string(cfg.RouteBackend))
	if err != nil {
		return nil, err
	}
	initDone := metrics.StartPhase(cfg.Metrics, metrics.PhaseInit)
	rng := rand.New(rand.NewSource(cfg.Seed))
	p, err := layout.NewRandom(a, nl, rng)
	if err != nil {
		return nil, err
	}
	an, err := timing.NewAnalyzer(nl)
	if err != nil {
		return nil, err
	}
	o := &Optimizer{
		A:   a,
		NL:  nl,
		P:   p,
		F:   fabric.New(a),
		Rts: make([]fabric.NetRoute, nl.NumNets()),
		An:  an,
		cfg: cfg,

		netStamp:  make([]uint32, nl.NumNets()),
		cellStamp: make([]uint32, nl.NumCells()),

		// Pre-sized move scratch: a move can journal, rip and leave unrouted
		// every net, so sizing for the worst case up front keeps the
		// steady-state move path at zero allocations (asserted by
		// TestMoveAllocFree).
		journal:  make([]jEntry, 0, nl.NumNets()),
		unrouted: make([]int32, 0, nl.NumNets()),
		spare:    make([]int32, 0, nl.NumNets()),
		ripped:   make([]int32, 0, nl.NumNets()),
		estLen:   make([]float64, nl.NumNets()),
	}

	// Initial constructive routing (longest nets first) and delay fill.
	// The nested phase records let benchmarks attribute the construction's
	// route share separately from the enclosing init phase.
	grouteDone := metrics.StartPhase(cfg.Metrics, metrics.PhaseGlobalRoute)
	groute.RouteAll(o.F, o.P, o.Rts)
	grouteDone()
	drouteDone := metrics.StartPhase(cfg.Metrics, metrics.PhaseDetailRoute)
	switch backend {
	case droute.BackendNegotiated:
		o.initRouteFailed = droute.RouteAllNegotiated(o.F, o.Rts, droute.NegotiateConfig{Seed: cfg.Seed})
	case droute.BackendLagrange:
		o.initRouteFailed = droute.RouteAllLagrange(o.F, o.Rts, droute.LagrangeConfig{Seed: cfg.Seed})
	default:
		// A single ordered pass consuming no RNG draws beyond placement's:
		// the annealer works off the remaining debt move by move, exactly as
		// in the pre-backend engine.
		o.initRouteFailed = droute.RouteAllDetailed(o.F, o.Rts, 1, rng)
	}
	drouteDone()
	o.recountGD()
	for id := range o.Rts {
		o.estLen[id] = o.P.EstLength(int32(id))
		if !o.Rts[id].DetailDone() {
			o.unrouted = append(o.unrouted, int32(id))
		}
	}
	slices.SortFunc(o.unrouted, func(a, b int32) int {
		switch {
		case o.before(a, b):
			return -1
		case o.before(b, a):
			return 1
		}
		return 0
	})
	o.watchAll()
	if o.timingOn() {
		if err := an.Fill(o.netDelays); err != nil {
			return nil, err
		}
	}
	if o.critOn() {
		o.crit = timing.NewCriticality(an, critDamping)
		o.netMaxD = make([]float64, nl.NumNets())
		o.critCells = make([]int32, 0, nl.NumCells())
		o.critStamp = make([]uint32, nl.NumCells())
		o.crit.Update()
		o.rebuildCritState()
	}
	o.refreshWeights()
	o.lastWork = o.work()
	initDone()
	return o, nil
}

// critOn reports whether the criticality-weighted timing term participates in
// the optimization. It requires the base timing term: criticalities are
// slack-derived, and without a maintained timing view there are no slacks.
func (o *Optimizer) critOn() bool { return o.cfg.CritWeight > 0 && o.timingOn() }

// rebuildCritState refreshes the per-net max sink delays, the criticality-
// weighted delay sum, and the near-critical cell pool from the analyzer's
// committed state and the current damped criticalities. It runs at
// construction and at temperature boundaries, never on the per-move path.
func (o *Optimizer) rebuildCritState() {
	crit := o.crit.Values()
	o.critSum = 0
	o.critCells = o.critCells[:0]
	o.critEpoch++
	mark := func(cell int32) {
		if o.critStamp[cell] != o.critEpoch {
			o.critStamp[cell] = o.critEpoch
			o.critCells = append(o.critCells, cell)
		}
	}
	for id := range o.Rts {
		m := 0.0
		for _, v := range o.An.NetDelay(int32(id)) {
			if v > m {
				m = v
			}
		}
		o.netMaxD[id] = m
		o.critSum += crit[id] * m
		if crit[id] >= critThreshold {
			net := &o.NL.Nets[id]
			mark(net.Driver.Cell)
			for _, s := range net.Sinks {
				mark(s.Cell)
			}
		}
	}
}

// timingOn reports whether the timing term participates in the optimization.
// When it does not (the pure-wirability mode of the Table-2 sweep), delay
// evaluation and propagation are skipped entirely.
func (o *Optimizer) timingOn() bool { return !o.cfg.DisableTiming }

// RefreshTiming fills the timing view from the current routes regardless of
// mode; wirability-only callers use it to obtain a final WCD report.
func (o *Optimizer) RefreshTiming() error { return o.An.Fill(o.netDelays) }

// netDelays returns the in-loop model's current per-sink delays for a net.
// The returned slice is only valid until the next call (the analyzer copies
// it).
func (o *Optimizer) netDelays(id int32) ([]float64, error) {
	return o.dcalc.Delays(o.P, id, &o.Rts[id])
}

// recountGD recomputes G, D and the missing-channel count from scratch.
func (o *Optimizer) recountGD() {
	o.g, o.d, o.dc = 0, 0, 0
	for id := range o.Rts {
		if !o.Rts[id].Global {
			o.g++
		}
		if !o.Rts[id].DetailDone() {
			o.d++
		}
		if o.Rts[id].Global {
			o.dc += o.Rts[id].UnroutedChans()
		}
	}
}

// refreshWeights renormalizes the cost weights against the current component
// magnitudes (paper §3.2: "determined adaptively at runtime so as to
// normalize the components"). Floors keep the pressure per unrouted net
// growing as the counts shrink, which is what drives the layout to 100%
// routing.
func (o *Optimizer) refreshWeights() {
	n := float64(o.NL.NumNets())
	gRef := float64(o.g)
	if gRef < 0.02*n {
		gRef = 0.02 * n
	}
	dRef := float64(o.d)
	if dRef < 0.04*n {
		dRef = 0.04 * n
	}
	o.wg = routeGamma / gRef
	o.wd = routeGamma / dRef
	if !o.timingOn() {
		o.wt = 0
		return
	}
	t := o.An.WCD()
	if t <= 0 {
		t = 1
	}
	o.wt = timingGamma / t
	if !o.critOn() {
		o.wcr = 0
		return
	}
	cs := o.critSum
	if cs <= 0 {
		cs = 1
	}
	o.wcr = o.cfg.CritWeight * timingGamma / cs
}

// Cost implements anneal.Problem. The D term carries a fractional
// missing-channel component: a net stuck in three channels costs more than
// one stuck in a single channel, which gives the annealer a gradient toward
// full detailed routing that a bare net count lacks.
func (o *Optimizer) Cost() float64 {
	d := float64(o.d) + o.cfg.DCFraction*float64(o.dc)
	// The criticality term contributes exactly +0.0 when the extension is
	// off (wcr and critSum are both zero), leaving the float result
	// bit-identical to the three-term cost.
	return o.wg*float64(o.g) + o.wd*d + o.wt*o.An.WCD() + o.wcr*o.critSum
}

// G returns the current number of globally unroutable nets.
func (o *Optimizer) G() int { return o.g }

// D returns the current number of nets lacking a complete detailed route.
func (o *Optimizer) D() int { return o.d }

// WCD returns the current worst-case delay in picoseconds.
func (o *Optimizer) WCD() float64 { return o.An.WCD() }

// annealConfig is the engine configuration shared by the serial and parallel
// paths.
func (o *Optimizer) annealConfig() anneal.Config {
	return anneal.Config{
		Seed:         o.cfg.Seed + 1,
		MovesPerTemp: o.cfg.MovesPerCell * o.NL.NumCells(),
		MaxTemps:     o.cfg.MaxTemps,
		Cancel:       o.cfg.Cancel,
	}
}

// Run anneals to completion, applies the zero-temperature routability repair,
// and reports the result.
func (o *Optimizer) Run() Result {
	o.dynamics = o.dynamics[:0]
	o.cellEpochBase = o.epoch
	annealDone := metrics.StartPhase(o.cfg.Metrics, metrics.PhaseAnneal)
	ares := anneal.Run(o, o.annealConfig(), o.onTemp)
	annealDone()
	return o.finish(ares)
}

// finish is the shared post-annealing tail: zero-temperature routability
// repair, the wirability-only timing refresh, and result assembly. A
// cancelled anneal skips the repair phase entirely so termination stays
// prompt; the rest of the report is still assembled from the consistent
// last-temperature state.
func (o *Optimizer) finish(ares anneal.Result) Result {
	var repairMoves, repairFixed int
	if !ares.Cancelled {
		rng := rand.New(rand.NewSource(o.cfg.Seed + 2))
		repairDone := metrics.StartPhase(o.cfg.Metrics, metrics.PhaseRepair)
		repairMoves, repairFixed = o.repair(rng)
		repairDone()
	}

	if !o.timingOn() {
		// Wirability-only runs still report a real final delay.
		timingDone := metrics.StartPhase(o.cfg.Metrics, metrics.PhaseTiming)
		if err := o.RefreshTiming(); err != nil {
			panic("core: " + err.Error())
		}
		timingDone()
	}
	res := Result{
		G:            o.g,
		D:            o.d,
		WCD:          o.An.WCD(),
		FullyRouted:  o.g == 0 && o.d == 0,
		Anneal:       ares,
		Dynamics:     append([]DynamicsSample(nil), o.dynamics...),
		RepairMoves:  repairMoves,
		RepairFixed:  repairFixed,
		FinalCost:    o.Cost(),
		CriticalPath: o.An.CriticalPath(),
		Cancelled:    ares.Cancelled,
		RouteFailed:  o.initRouteFailed,
	}
	return res
}

// RunParallel anneals with cfg.Chains parallel portfolio chains and returns
// the optimizer holding the winning state along with its result. With
// Chains <= 1 it is exactly Run on the receiver (same moves, same rng
// stream, bit-identical result); with K > 1 the returned optimizer is the
// champion chain's state, which may be a clone of the receiver.
func (o *Optimizer) RunParallel() (*Optimizer, Result) {
	if o.cfg.Chains <= 1 {
		return o, o.Run()
	}
	o.dynamics = o.dynamics[:0]
	o.cellEpochBase = o.epoch
	annealDone := metrics.StartPhase(o.cfg.Metrics, metrics.PhaseAnneal)
	pres := anneal.RunParallel(o, anneal.ParallelConfig{
		Config:    o.annealConfig(),
		Chains:    o.cfg.Chains,
		SyncTemps: o.cfg.SyncTemps,
	}, func(ci int, p anneal.Problem, s anneal.TempStats) {
		// Each chain maintains its own weights and dynamics trace;
		// the callback only ever touches that chain's optimizer.
		opt := p.(*Optimizer)
		opt.chain = ci
		opt.onTemp(s)
	})
	annealDone()
	if mc := o.cfg.Metrics; mc != nil {
		for i := range pres.PerChain {
			mc.RecordChain(metrics.ChainRecord{
				Chain:     i,
				Temps:     pres.PerChain[i].Temps,
				Moves:     pres.PerChain[i].TotalMoves,
				Accepted:  pres.PerChain[i].Accepted,
				FinalCost: pres.PerChain[i].FinalCost,
				Wall:      pres.Wall[i],
				Adoptions: pres.Adoptions[i],
				Champion:  i == pres.Champion,
			})
		}
	}
	champ := pres.Best.(*Optimizer)
	res := champ.finish(pres.Result)
	res.Chains = o.cfg.Chains
	res.Champion = pres.Champion
	res.Restarts = pres.Restarts
	res.ChampionSwitches = pres.ChampionSwitches
	res.ChainCosts = make([]float64, len(pres.PerChain))
	for i := range pres.PerChain {
		res.ChainCosts[i] = pres.PerChain[i].FinalCost
	}
	return champ, res
}

// work returns the engine's cumulative work: the fabric's router counts plus
// the analyzer's timing counts.
func (o *Optimizer) work() metrics.Work {
	w := o.F.Stats
	w.Add(o.An.Stats())
	return w
}

// onTemp records Figure-6 dynamics, emits the observability record and
// renormalizes weights.
func (o *Optimizer) onTemp(s anneal.TempStats) {
	if mc := o.cfg.Metrics; mc != nil {
		w := o.work()
		mc.RecordTemp(metrics.TempRecord{
			Chain:    o.chain,
			Step:     s.Step,
			Temp:     s.Temp,
			Moves:    s.Moves,
			Accepted: s.Accepted,
			Cost:     s.Cost,
			BestCost: s.BestCost,
			G:        o.g,
			D:        o.d,
			GCost:    o.wg * float64(o.g),
			DCost:    o.wd * (float64(o.d) + o.cfg.DCFraction*float64(o.dc)),
			TCost:    o.wt * o.An.WCD(),
			CCost:    o.wcr * o.critSum,
			WCD:      o.An.WCD(),
			Work:     w.Sub(o.lastWork),
			Elapsed:  s.Elapsed,
		})
		o.lastWork = w
	}
	n := float64(o.NL.NumNets())
	o.dynamics = append(o.dynamics, DynamicsSample{
		Step:             s.Step,
		Temp:             s.Temp,
		CellsPerturbed:   float64(o.perturbed) / float64(o.NL.NumCells()),
		GlobalUnrouted:   float64(o.g) / n,
		Unrouted:         float64(o.d) / n,
		WCD:              o.An.WCD(),
		Cost:             s.Cost,
		AcceptRatio:      s.AcceptRatio(),
		MovesAtTemp:      s.Moves,
		AcceptedMovesSum: s.Accepted,
	})
	o.perturbed = 0
	o.cellEpochBase = o.epoch // invalidate per-temperature cell stamps
	if o.critOn() {
		// Fold a fresh slack extraction into the damped criticalities, then
		// re-anchor the weighted-delay sum and the near-critical cell pool
		// on the new values. One O(cells + pins) pass per temperature.
		o.crit.Update()
		o.rebuildCritState()
	}
	o.refreshWeights()
}

// cancelPending reports whether cfg.Cancel has fired (nil = never). It is
// polled only at phase/pass boundaries, never on the per-move path.
func (o *Optimizer) cancelPending() bool {
	if o.cfg.Cancel == nil {
		return false
	}
	select {
	case <-o.cfg.Cancel:
		return true
	default:
		return false
	}
}

// repair runs greedy zero-temperature passes that target the cells of
// still-unrouted nets, accepting only non-worsening moves, until the layout
// is fully routed, the pass budget is exhausted, or cancellation fires (a
// cancel arriving mid-repair stops at the next pass boundary). Returns moves
// tried and nets fixed.
func (o *Optimizer) repair(rng *rand.Rand) (moves, fixed int) {
	if o.d == 0 {
		return 0, 0
	}
	startD := o.d
	for pass := 0; pass < o.cfg.RepairPasses && o.d > 0 && !o.cancelPending(); pass++ {
		budget := 4 * o.NL.NumCells()
		for i := 0; i < budget && o.d > 0; i++ {
			dC := o.proposeBiased(rng)
			moves++
			dGD := (o.g + o.d) - (o.jOldG + o.jOldD)
			if dGD < 0 || (dGD == 0 && dC <= 0) {
				o.Accept()
			} else {
				o.Reject()
			}
		}
	}
	return moves, startD - o.d
}

// proposeBiased is Propose, but the moved cell is drawn from an unrouted
// net's pins half of the time — used only by the repair phase.
func (o *Optimizer) proposeBiased(rng *rand.Rand) float64 {
	if o.d > 0 && rng.Intn(2) == 0 {
		if cell, ok := o.cellOnUnroutedNet(rng); ok {
			lb := layout.Loc{Row: rng.Intn(o.A.Rows), Col: rng.Intn(o.A.Cols)}
			return o.proposeSwap(o.P.Loc[cell], lb)
		}
	}
	return o.Propose(rng)
}

func (o *Optimizer) cellOnUnroutedNet(rng *rand.Rand) (int32, bool) {
	// Reservoir-sample an unrouted net in id order: the draws are those of a
	// walk over the unrouted nets by increasing id, and pick is the sampled
	// net's place in that walk. The unrouted list holds exactly those nets;
	// spare, which holds nothing live between moves, marks them by id.
	if len(o.unrouted) == 0 {
		return 0, false
	}
	pick := 0
	for i := 1; i <= len(o.unrouted); i++ {
		if rng.Intn(i) == 0 {
			pick = i - 1
		}
	}
	mark := o.spare[:len(o.Rts)]
	clear(mark)
	for _, id := range o.unrouted {
		mark[id] = 1
	}
	id := 0
	for mark[id] == 0 || pick > 0 {
		pick -= int(mark[id])
		id++
	}
	net := &o.NL.Nets[id]
	k := rng.Intn(len(net.Sinks) + 1)
	if k == 0 {
		return net.Driver.Cell, true
	}
	return net.Sinks[k-1].Cell, true
}

// before reports whether net a precedes net b in cascade order: decreasing
// estimated length (the paper's U_G/U_D priority), then increasing id. It is
// a strict total order, so the order of the unrouted list is unique.
func (o *Optimizer) before(a, b int32) bool {
	if o.estLen[a] != o.estLen[b] {
		return o.estLen[a] > o.estLen[b]
	}
	return a < b
}

var _ anneal.Problem = (*Optimizer)(nil)

// String summarizes the current state (for logs and debugging).
func (o *Optimizer) String() string {
	return fmt.Sprintf("core{G=%d D=%d T=%.0fps cost=%.4f}", o.g, o.d, o.An.WCD(), o.Cost())
}

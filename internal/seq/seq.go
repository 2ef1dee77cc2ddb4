// Package seq implements the traditional sequential layout flow the paper
// compares against (its Figure 1, as embodied by the Texas Instruments
// production system): timing-blind annealing placement [6], then one-shot
// global routing [7], then segmented-channel detailed routing [11], then
// post-layout static timing analysis. Each stage commits before the next
// begins — the lack of feedback between stages is precisely the weakness the
// simultaneous approach addresses.
package seq

import (
	"math/rand"

	"repro/internal/arch"
	"repro/internal/droute"
	"repro/internal/fabric"
	"repro/internal/groute"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/timing"
)

// Config tunes the sequential flow.
type Config struct {
	Seed          int64
	Place         place.Config
	RouteAttempts int         // detailed-routing ordering retries per channel (default 8)
	DrouteCost    droute.Cost // zero value selects droute.DefaultCost

	// TimingDriven enables the classic two-pass criticality-weighted
	// placement: place once, estimate net criticalities from the placement's
	// spatial extents, then re-place with critical nets weighted heavier.
	// The paper (§2.1) explains why even this stronger sequential baseline
	// struggles on row-based FPGAs: interconnect delay tracks antifuse
	// count, not length, so placement-level criticality estimates mislead.
	TimingDriven bool
	// CritWeight scales how much a fully critical net's wirelength is
	// amplified in the second pass (default 3).
	CritWeight float64

	// RouteBackend selects the full detailed-routing algorithm: the
	// paper-era ordered router (empty or droute.BackendOrdered), the
	// PathFinder-style negotiated router (droute.BackendNegotiated), or the
	// Lagrangian-relaxation net-parallel router (droute.BackendLagrange).
	// Every backend is deterministic for a fixed Seed regardless of
	// RouteWorkers or GOMAXPROCS.
	RouteBackend droute.Backend

	// RouteIters overrides the iteration cap of the negotiated and lagrange
	// backends (0 = the backend's default). Ignored by the ordered router.
	RouteIters int

	// RouteWorkers caps the detailed router's concurrency: channels
	// negotiated at once (negotiated), nets choosing tracks at once
	// (lagrange), or retry orderings evaluated at once (ordered). 0 =
	// GOMAXPROCS. Scheduling only; never affects results.
	RouteWorkers int

	// Metrics, when non-nil, receives per-phase wall-clock records for the
	// four sequential stages (place, global-route, detail-route, timing).
	// Collection never affects results.
	Metrics metrics.Collector
}

func (c *Config) setDefaults() {
	if c.RouteAttempts <= 0 {
		c.RouteAttempts = 8
	}
	if c.CritWeight <= 0 {
		c.CritWeight = 3
	}
	if c.DrouteCost == (droute.Cost{}) {
		c.DrouteCost = droute.DefaultCost()
	}
	if c.Place.Seed == 0 {
		c.Place.Seed = c.Seed
	}
}

// Result is a finished sequential layout.
type Result struct {
	P      *layout.Placement
	F      *fabric.Fabric
	Routes []fabric.NetRoute

	GlobalFailed  int // nets with no global route
	DetailFailed  int // channel needs with no detailed route
	UnroutedNets  int // nets lacking a complete detailed route (the paper's D)
	FullyRouted   bool
	WCD           float64 // worst-case delay (estimates fill in for unrouted nets)
	PlaceResult   place.Result
	CriticalCells []int32
}

// Run executes the complete sequential flow.
func Run(a *arch.Arch, nl *netlist.Netlist, cfg Config) (*Result, error) {
	cfg.setDefaults()

	placeDone := metrics.StartPhase(cfg.Metrics, metrics.PhasePlace)
	p, pres, err := place.Place(a, nl, cfg.Place)
	if err != nil {
		return nil, err
	}
	if cfg.TimingDriven {
		weights, werr := criticalityWeights(nl, p, cfg.CritWeight)
		if werr != nil {
			return nil, werr
		}
		pc := cfg.Place
		pc.Seed++
		pc.NetWeights = weights
		p, pres, err = place.Place(a, nl, pc)
		if err != nil {
			return nil, err
		}
	}
	placeDone()

	f := fabric.New(a)
	routes := make([]fabric.NetRoute, nl.NumNets())
	grouteDone := metrics.StartPhase(cfg.Metrics, metrics.PhaseGlobalRoute)
	gFailed := groute.RouteAll(f, p, routes)
	grouteDone()
	backend, err := droute.ParseBackend(string(cfg.RouteBackend))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	var dFailed int
	drouteDone := metrics.StartPhase(cfg.Metrics, metrics.PhaseDetailRoute)
	switch backend {
	case droute.BackendNegotiated:
		dFailed = droute.RouteAllNegotiated(f, routes, cfg.DrouteCost, droute.NegotiateConfig{
			MaxIters:         cfg.RouteIters,
			Seed:             cfg.Seed,
			FallbackAttempts: cfg.RouteAttempts,
			Workers:          cfg.RouteWorkers,
		})
	case droute.BackendLagrange:
		dFailed = droute.RouteAllLagrange(f, routes, cfg.DrouteCost, droute.LagrangeConfig{
			MaxIters:         cfg.RouteIters,
			Seed:             cfg.Seed,
			FallbackAttempts: cfg.RouteAttempts,
			Workers:          cfg.RouteWorkers,
		})
	default:
		dFailed = droute.RouteAllDetailedWorkers(f, routes, cfg.DrouteCost, cfg.RouteAttempts, rng, cfg.RouteWorkers)
	}
	drouteDone()

	res := &Result{
		P:            p,
		F:            f,
		Routes:       routes,
		GlobalFailed: len(gFailed),
		DetailFailed: dFailed,
		PlaceResult:  pres,
	}
	for id := range routes {
		if !routes[id].DetailDone() {
			res.UnroutedNets++
		}
	}
	res.FullyRouted = res.UnroutedNets == 0

	timingDone := metrics.StartPhase(cfg.Metrics, metrics.PhaseTiming)
	an, err := timing.NewAnalyzer(nl)
	if err != nil {
		return nil, err
	}
	an.Begin()
	for id := range routes {
		if len(nl.Nets[id].Sinks) == 0 {
			continue
		}
		var d []float64
		if routes[id].DetailDone() {
			d, err = timing.NetDelays(p, int32(id), &routes[id], 1.0)
			if err != nil {
				return nil, err
			}
		} else {
			d = timing.EstimateDelays(p, int32(id))
		}
		an.SetNetDelays(int32(id), d)
	}
	res.WCD = an.Propagate()
	an.Commit()
	res.CriticalCells = an.CriticalPath()
	timingDone()
	return res, nil
}

// criticalityWeights derives per-net placement weights from estimated delays
// on the first-pass placement (no routing exists yet, exactly the
// information a sequential timing-driven placer has).
func criticalityWeights(nl *netlist.Netlist, p *layout.Placement, critWeight float64) ([]float64, error) {
	an, err := timing.NewAnalyzer(nl)
	if err != nil {
		return nil, err
	}
	an.Begin()
	for id := range nl.Nets {
		if len(nl.Nets[id].Sinks) == 0 {
			continue
		}
		an.SetNetDelays(int32(id), timing.EstimateDelays(p, int32(id)))
	}
	an.Propagate()
	an.Commit()
	// One shot, no history to damp: the shared extractor with damping 0
	// yields exactly the instantaneous criticalities.
	ext := timing.NewCriticality(an, 0)
	ext.Update()
	weights := make([]float64, nl.NumNets())
	for i, c := range ext.Values() {
		weights[i] = 1 + critWeight*c
	}
	return weights, nil
}

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
	RouteAttempts int // detailed-routing ordering retries per channel (default 8)

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
	// Lagrangian-relaxation net-parallel router (droute.BackendLagrange),
	// each at its own iteration cap. Every backend is deterministic for a
	// fixed Seed regardless of GOMAXPROCS.
	RouteBackend droute.Backend

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
	CriticalCells []int32
}

// Run executes the complete sequential flow.
func Run(a *arch.Arch, nl *netlist.Netlist, cfg Config) (*Result, error) {
	cfg.setDefaults()

	placeDone := metrics.StartPhase(cfg.Metrics, metrics.PhasePlace)
	p, _, err := place.Place(a, nl, cfg.Place)
	if err != nil {
		return nil, err
	}
	if cfg.TimingDriven {
		weights, werr := criticalityWeights(p, cfg.CritWeight)
		if werr != nil {
			return nil, werr
		}
		pc := cfg.Place
		pc.Seed++
		pc.NetWeights = weights
		p, _, err = place.Place(a, nl, pc)
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
		dFailed = droute.RouteAllNegotiated(f, routes, droute.NegotiateConfig{
			Seed:             cfg.Seed,
			FallbackAttempts: cfg.RouteAttempts,
		})
	case droute.BackendLagrange:
		dFailed = droute.RouteAllLagrange(f, routes, droute.LagrangeConfig{
			Seed:             cfg.Seed,
			FallbackAttempts: cfg.RouteAttempts,
		})
	default:
		dFailed = droute.RouteAllDetailed(f, routes, cfg.RouteAttempts, rng)
	}
	drouteDone()

	res := &Result{
		P:            p,
		F:            f,
		Routes:       routes,
		GlobalFailed: len(gFailed),
		DetailFailed: dFailed,
	}
	for id := range routes {
		if !routes[id].DetailDone() {
			res.UnroutedNets++
		}
	}
	res.FullyRouted = res.UnroutedNets == 0

	timingDone := metrics.StartPhase(cfg.Metrics, metrics.PhaseTiming)
	an, err := timing.Analyze(p, routes)
	if err != nil {
		return nil, err
	}
	res.WCD = an.WCD()
	res.CriticalCells = an.CriticalPath()
	timingDone()
	return res, nil
}

// criticalityWeights derives per-net placement weights from estimated delays
// on the first-pass placement (no routing exists yet, exactly the
// information a sequential timing-driven placer has).
func criticalityWeights(p *layout.Placement, critWeight float64) ([]float64, error) {
	an, err := timing.Analyze(p, nil)
	if err != nil {
		return nil, err
	}
	// One shot, no history to damp: the shared extractor with damping 0
	// yields exactly the instantaneous criticalities.
	ext := timing.NewCriticality(an, 0)
	ext.Update()
	weights := make([]float64, p.NL.NumNets())
	for i, c := range ext.Values() {
		weights[i] = 1 + critWeight*c
	}
	return weights, nil
}

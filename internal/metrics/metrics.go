// Package metrics is the optimizer observability layer: a Collector interface
// that the annealing engines, routers and flows feed with per-temperature,
// per-phase and per-chain records, plus ready-made collectors (an aggregating
// Summary, a JSONL event Trace, and a fan-out Multi).
//
// Design constraints, in order:
//
//  1. Disabled must be free. A nil Collector is the disabled state; every
//     instrumentation site is a single nil check, no per-move calls exist at
//     all (hot-loop counts are a Work on fabric.Fabric and one on
//     timing.Analyzer, snapshotted once per temperature), and records are
//     passed by value so the interface boundary never allocates.
//  2. Determinism is untouched. Collectors only observe; wall-clock fields
//     (Elapsed) are reporting-only and never feed back into any decision.
//  3. Concurrency-safe. Parallel portfolio chains share one collector and
//     call it concurrently; every collector in this package locks internally,
//     and records carry the chain index.
package metrics

import "time"

// Phase identifies a timed stage of a layout flow.
type Phase uint8

const (
	// PhaseInit is the simultaneous flow's construction: random placement,
	// constructive first routing pass, and the initial timing fill.
	PhaseInit Phase = iota
	// PhasePlace is the sequential flow's annealing placement.
	PhasePlace
	// PhaseGlobalRoute is the sequential flow's one-shot global route.
	PhaseGlobalRoute
	// PhaseDetailRoute is the sequential flow's channel routing.
	PhaseDetailRoute
	// PhaseTiming is a full (non-incremental) timing analysis pass.
	PhaseTiming
	// PhaseAnneal is the simultaneous flow's annealing loop (all chains).
	PhaseAnneal
	// PhaseRepair is the zero-temperature routability repair.
	PhaseRepair

	// NumPhases bounds per-phase arrays.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"init", "place", "global-route", "detail-route", "timing", "anneal", "repair",
}

// String returns the phase's stable, schema-visible name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// TempRecord is one temperature step of one annealing chain: the engine-level
// move statistics, the optimizer's cost decomposition, and the router/STA
// activity deltas accumulated during the temperature.
type TempRecord struct {
	Chain    int     `json:"chain"`     // chain index (0 on the serial path)
	Step     int     `json:"step"`      // 0 = warmup walk, then 1..Temps
	Temp     float64 `json:"temp"`      // temperature
	Moves    int     `json:"moves"`     // moves proposed at this temperature
	Accepted int     `json:"accepted"`  // moves accepted
	Cost     float64 `json:"cost"`      // cost at end of temperature
	BestCost float64 `json:"best_cost"` // best cost seen so far by this chain

	// Cost decomposition at the temperature boundary (weights as used during
	// the temperature, before renormalization).
	G     int     `json:"g"`                // globally unroutable nets
	D     int     `json:"d"`                // nets lacking a complete detailed route
	GCost float64 `json:"g_cost"`           // weighted G component
	DCost float64 `json:"d_cost"`           // weighted D component
	TCost float64 `json:"t_cost"`           // weighted timing component
	CCost float64 `json:"c_cost,omitempty"` // weighted criticality component (0 unless core.Config.CritWeight > 0)
	WCD   float64 `json:"wcd_ps"`           // worst-case delay, ps

	// Router and timing work during this temperature.
	Work

	Elapsed time.Duration `json:"elapsed_ns"` // wall clock spent in this temperature
}

// Work counts the engine's router and timing work. The routers (groute,
// droute, core's rip-up cascade) count into fabric.Fabric.Stats and the
// incremental analyzer into its own Work; both are always on — plain integer
// adds, cheap enough for the hot loop — and the optimizer snapshots them at
// temperature boundaries to derive per-temperature deltas. Rollback traffic
// (Reject reinstating journaled routes and arrivals) is deliberately not
// counted: the counters describe work, not bookkeeping.
type Work struct {
	RipUps          int64 `json:"rip_ups"`           // nets ripped up (resources freed ahead of a reroute)
	GRouteAttempts  int64 `json:"groute_attempts"`   // global-route attempts
	GRouteFails     int64 `json:"groute_fails"`      // global-route attempts that found no vertical run
	DRouteAttempts  int64 `json:"droute_attempts"`   // detailed channel-route attempts
	DRouteFails     int64 `json:"droute_fails"`      // detailed attempts with no feasible track
	STAUpdates      int64 `json:"sta_updates"`       // incremental net-delay updates pushed into the analyzer
	STACellsRelaxed int64 `json:"sta_cells_relaxed"` // cell arrivals recomputed by frontier propagation
}

// Add adds d's counts to w.
func (w *Work) Add(d Work) {
	w.RipUps += d.RipUps
	w.GRouteAttempts += d.GRouteAttempts
	w.GRouteFails += d.GRouteFails
	w.DRouteAttempts += d.DRouteAttempts
	w.DRouteFails += d.DRouteFails
	w.STAUpdates += d.STAUpdates
	w.STACellsRelaxed += d.STACellsRelaxed
}

// Sub returns the delta w - prev, for per-interval reporting.
func (w Work) Sub(prev Work) Work {
	return Work{
		RipUps:          w.RipUps - prev.RipUps,
		GRouteAttempts:  w.GRouteAttempts - prev.GRouteAttempts,
		GRouteFails:     w.GRouteFails - prev.GRouteFails,
		DRouteAttempts:  w.DRouteAttempts - prev.DRouteAttempts,
		DRouteFails:     w.DRouteFails - prev.DRouteFails,
		STAUpdates:      w.STAUpdates - prev.STAUpdates,
		STACellsRelaxed: w.STACellsRelaxed - prev.STACellsRelaxed,
	}
}

// AcceptRatio returns the fraction of proposed moves accepted.
func (r TempRecord) AcceptRatio() float64 {
	if r.Moves == 0 {
		return 0
	}
	return float64(r.Accepted) / float64(r.Moves)
}

// MovesPerSec returns the throughput of this temperature (0 when unmeasured).
func (r TempRecord) MovesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Moves) / r.Elapsed.Seconds()
}

// PhaseRecord reports the wall-clock duration of one flow phase.
type PhaseRecord struct {
	Phase   Phase
	Elapsed time.Duration
}

// ChainRecord summarizes one chain of a parallel portfolio run.
type ChainRecord struct {
	Chain     int           `json:"chain"`
	Temps     int           `json:"temps"`
	Moves     int           `json:"moves"`
	Accepted  int           `json:"accepted"`
	FinalCost float64       `json:"final_cost"`
	Wall      time.Duration `json:"wall_ns"`   // wall clock spent stepping this chain
	Adoptions int           `json:"adoptions"` // times this chain restarted from the champion
	Champion  bool          `json:"champion"`  // whether this chain won
}

// Collector receives optimizer events. Implementations must be safe for
// concurrent use: parallel annealing chains share one collector. A nil
// Collector means collection is disabled; callers nil-check before calling.
type Collector interface {
	RecordTemp(TempRecord)
	RecordPhase(PhaseRecord)
	RecordChain(ChainRecord)
}

// StartPhase starts a wall-clock timer for a phase and returns the function
// that stops it and reports the record. With a nil collector it returns a
// no-op, so call sites do not need their own nil checks.
func StartPhase(c Collector, p Phase) func() {
	if c == nil {
		return func() {}
	}
	start := time.Now()
	return func() { c.RecordPhase(PhaseRecord{Phase: p, Elapsed: time.Since(start)}) }
}

// Multi fans records out to every non-nil collector. It returns nil when none
// remain (keeping the disabled path free), and the collector itself when only
// one remains (avoiding a pointless indirection).
func Multi(cs ...Collector) Collector {
	var live []Collector
	for _, c := range cs {
		if c != nil {
			live = append(live, c)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Collector

func (m multi) RecordTemp(r TempRecord) {
	for _, c := range m {
		c.RecordTemp(r)
	}
}
func (m multi) RecordPhase(r PhaseRecord) {
	for _, c := range m {
		c.RecordPhase(r)
	}
}
func (m multi) RecordChain(r ChainRecord) {
	for _, c := range m {
		c.RecordChain(r)
	}
}

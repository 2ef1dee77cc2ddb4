// Package portfolio turns one place-and-route problem into a best-of-N
// sweep: a Matrix of result-affecting knobs (seeds, effort points, route
// backends) expands deterministically into an ordered member list, every
// member is an independent deterministic run, and a champion is selected by
// a strict quality order with the member index as the final tie-break.
//
// The package is deliberately mechanism, not transport: it knows nothing
// about HTTP, jobs or the scheduler. The fpgaprd coordinator expands a wire
// Matrix into member jobs it fans out through its normal queue, and the
// fpgapr CLI expands the same Matrix into local runs — both get identical
// member lists for identical matrices, which is what makes a server-side
// portfolio reproducible client-side.
package portfolio

import (
	"fmt"
	"strings"

	"repro/internal/droute"
)

// MaxMembers bounds a single matrix expansion. It protects the expander's
// callers (the daemon validates against its own, possibly lower, cap); a
// sweep larger than this should be split into several portfolios.
const MaxMembers = 64

// Effort is one point on the matrix's effort axis: annealing knobs that
// trade wall time for quality. Zero fields inherit the base configuration
// the portfolio was submitted with, so the zero Effort is "as submitted".
type Effort struct {
	// Name labels the point in scoreboards ("fast", "deep", ...). Optional.
	Name string `json:"name,omitempty"`
	// MovesPerCell overrides annealing moves per cell per temperature.
	MovesPerCell int `json:"moves_per_cell,omitempty"`
	// MaxTemps overrides the annealing temperature cap.
	MaxTemps int `json:"max_temps,omitempty"`
	// Chains overrides the parallel-chain count (1 = serial engine).
	Chains int `json:"chains,omitempty"`
}

// zero reports whether the effort point inherits everything.
func (e Effort) zero() bool {
	return e.Name == "" && e.MovesPerCell == 0 && e.MaxTemps == 0 && e.Chains == 0
}

// label is the effort's scoreboard spelling: its name, or the knobs it sets
// ("mpc9/t120", "c4"), so two different unnamed points never share a label.
func (e Effort) label() string {
	if e.Name != "" {
		return e.Name
	}
	var knobs []string
	if e.MovesPerCell != 0 {
		knobs = append(knobs, fmt.Sprintf("mpc%d", e.MovesPerCell))
	}
	if e.MaxTemps != 0 {
		knobs = append(knobs, fmt.Sprintf("t%d", e.MaxTemps))
	}
	if e.Chains != 0 {
		knobs = append(knobs, fmt.Sprintf("c%d", e.Chains))
	}
	if len(knobs) == 0 {
		return "base"
	}
	return strings.Join(knobs, "/")
}

// Matrix is the wire shape of a portfolio's member axes. Expansion is the
// cross product seeds × efforts × backends in that nesting order (seed is
// the innermost, fastest-varying axis), so the member list — and therefore
// every member index, scoreboard row and tie-break — is a pure function of
// the matrix.
//
// An empty axis contributes one inherit-the-base element: seed 0 means "the
// base config's seed", the zero Effort means "the base config's effort", and
// the empty backend means "the base config's route backend".
type Matrix struct {
	// Preset names a built-in matrix (seeds4, seeds8 or paper8) that Expand
	// resolves. When set, no explicit axis may be given.
	Preset string `json:"preset,omitempty"`

	Seeds    []int64  `json:"seeds,omitempty"`
	Efforts  []Effort `json:"efforts,omitempty"`
	Backends []string `json:"backends,omitempty"`
}

// Axes reports whether any explicit axis is populated.
func (m *Matrix) Axes() bool {
	return len(m.Seeds) > 0 || len(m.Efforts) > 0 || len(m.Backends) > 0
}

// Size is the member count Expand would produce (before validation).
func (m *Matrix) Size() int {
	n := func(k int) int {
		if k == 0 {
			return 1
		}
		return k
	}
	return n(len(m.Seeds)) * n(len(m.Efforts)) * n(len(m.Backends))
}

// Member is one expanded matrix point. Index is its position in the
// deterministic expansion order and the final champion tie-break.
type Member struct {
	Index   int    `json:"index"`
	Seed    int64  `json:"seed"`              // 0 = inherit the base seed
	Effort  Effort `json:"effort"`            // zero = inherit the base effort
	Backend string `json:"backend,omitempty"` // "" = inherit the base backend
}

// Desc is the member's human-readable scoreboard label.
func (m *Member) Desc() string {
	var parts []string
	if m.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", m.Seed))
	}
	if !m.Effort.zero() {
		parts = append(parts, "effort="+m.Effort.label())
	}
	if m.Backend != "" {
		parts = append(parts, "backend="+m.Backend)
	}
	if len(parts) == 0 {
		return "base"
	}
	return strings.Join(parts, " ")
}

// presets are the built-in matrices a Matrix may name as its Preset. They
// are read, never written.
var presets = map[string]Matrix{
	// Pure seed diversity at the submitted effort.
	"seeds4": {Seeds: []int64{1, 2, 3, 4}},
	"seeds8": {Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8}},
	// The EXPERIMENTS.md portfolio-of-8: 2 seeds × 2 effort points
	// (FastEffort- and PaperEffort-class core knobs) × 2 router backends.
	"paper8": {
		Seeds: []int64{1, 2},
		Efforts: []Effort{
			{Name: "fast", MovesPerCell: 6, MaxTemps: 80},
			{Name: "deep", MovesPerCell: 12, MaxTemps: 180},
		},
		Backends: []string{"ordered", "lagrange"},
	},
}

// Expand validates the matrix and produces its ordered member list. A preset
// expands exactly as the matrix it names, so the daemon and the CLI get the
// same members for it.
func (m *Matrix) Expand() ([]Member, error) {
	if m.Preset != "" {
		if m.Axes() {
			return nil, fmt.Errorf("portfolio: matrix gives both a preset %q and explicit axes", m.Preset)
		}
		p, ok := presets[m.Preset]
		if !ok {
			return nil, fmt.Errorf("portfolio: unknown matrix preset %q (have [paper8 seeds4 seeds8])", m.Preset)
		}
		return p.Expand()
	}
	if !m.Axes() {
		return nil, fmt.Errorf("portfolio: empty matrix (need at least one of seeds, efforts or backends)")
	}
	if n := m.Size(); n > MaxMembers {
		return nil, fmt.Errorf("portfolio: matrix expands to %d members (max %d)", n, MaxMembers)
	}
	for _, s := range m.Seeds {
		if s < 0 {
			return nil, fmt.Errorf("portfolio: seed %d must be non-negative", s)
		}
	}
	for i, e := range m.Efforts {
		if e.MovesPerCell < 0 || e.MaxTemps < 0 || e.Chains < 0 {
			return nil, fmt.Errorf("portfolio: effort %d has negative knobs", i)
		}
	}
	for _, b := range m.Backends {
		if _, err := droute.ParseBackend(b); err != nil {
			return nil, fmt.Errorf("portfolio: %v", err)
		}
	}
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	efforts := m.Efforts
	if len(efforts) == 0 {
		efforts = []Effort{{}}
	}
	backends := m.Backends
	if len(backends) == 0 {
		backends = []string{""}
	}
	members := make([]Member, 0, len(seeds)*len(efforts)*len(backends))
	for _, e := range efforts {
		for _, b := range backends {
			for _, s := range seeds {
				members = append(members, Member{
					Index: len(members), Seed: s, Effort: e, Backend: b,
				})
			}
		}
	}
	return members, nil
}

// Score is a layout's quality, ordered worst-is-last: a fully routed
// layout always beats an unrouted one, then fewer unrouted nets, then a
// shorter critical path, then a lower final cost. It is the repository's
// one quality order: it picks a portfolio's champion member and, through
// core.Optimizer, a parallel anneal's champion chain. Wall time is
// deliberately not part of the order — a portfolio buys quality with
// parallel wall time, and making speed a tie-break would let scheduling
// noise pick the champion.
type Score struct {
	RouteFailed bool    `json:"route_failed"`
	Unrouted    int     `json:"unrouted"`
	WCDPs       float64 `json:"critical_path_ps"`
	// Cost (bbox_cost on the wire) is the run's final annealing cost. The
	// annealer renormalizes its weights every temperature, so the cost is
	// on each run's own scale, about 1 for any routed layout: it only
	// breaks exact ties of the fields above.
	Cost float64 `json:"bbox_cost"`
}

// Less reports whether a ranks strictly better than b.
func (a Score) Less(b Score) bool {
	if a.RouteFailed != b.RouteFailed {
		return !a.RouteFailed
	}
	if a.Unrouted != b.Unrouted {
		return a.Unrouted < b.Unrouted
	}
	if a.WCDPs != b.WCDPs {
		return a.WCDPs < b.WCDPs
	}
	return a.Cost < b.Cost
}

// Champion selects the winning member index from the members that finished
// (scored[i] non-nil): the best Score, with the lowest index winning exact
// ties. It returns -1 when no member finished. The selection is
// deterministic: member runs are themselves deterministic, so a portfolio
// re-run — or a member retried on another worker after a lease expiry —
// always crowns the same champion.
func Champion(scored []*Score) int {
	champ := -1
	for i, s := range scored {
		if s == nil {
			continue
		}
		if champ == -1 || s.Less(*scored[champ]) {
			champ = i
		}
	}
	return champ
}

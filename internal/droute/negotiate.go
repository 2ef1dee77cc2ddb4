package droute

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/fabric"
)

// NegotiateConfig tunes the negotiated-congestion full detailed router, a
// PathFinder-style iterative scheme adapted to segmented channels: every net
// picks its cheapest track while sharing is permitted but increasingly
// penalized, and per-segment history cost accumulates on chronically
// contended segments until the solution untangles. This post-dates the
// paper (it is the direction detailed FPGA routing took) and is offered as
// an opt-in alternative to the ordered single-pass router of [8][11].
type NegotiateConfig struct {
	MaxIters     int     // negotiation iterations (default 40)
	PresentBase  float64 // first-iteration sharing penalty (default 0.5)
	PresentGrow  float64 // multiplicative growth per iteration (default 1.6)
	HistoryDelta float64 // history added to each over-subscribed segment per iteration (default 1.0)
	Seed         int64   // seed for the ordered-router fallback on non-convergent instances

	// FallbackAttempts is the ordering-retry budget of the ordered-router
	// fallback on non-convergent instances (default 8).
	FallbackAttempts int
}

func (c *NegotiateConfig) setDefaults() {
	if c.MaxIters <= 0 {
		c.MaxIters = 40
	}
	if c.PresentBase <= 0 {
		c.PresentBase = 0.5
	}
	if c.PresentGrow <= 1 {
		c.PresentGrow = 1.6
	}
	if c.HistoryDelta <= 0 {
		c.HistoryDelta = 1.0
	}
	if c.FallbackAttempts <= 0 {
		c.FallbackAttempts = 8
	}
}

// negItem identifies one unrouted channel need of an iterative backend.
type negItem struct {
	net int32
	ci  int
}

// negChoice is an item's current (track, segLo, segHi); track == -1 when
// nothing is feasible.
type negChoice struct{ track, segLo, segHi int }

// RouteAllNegotiated detail-routes every unrouted channel need of the
// globally routed nets using congestion negotiation, then commits the final
// conflict-free assignments into f. Channel needs that still conflict after
// MaxIters (the loser keeps Track == -1) or that fit no track at all are
// counted in the returned failure total.
//
// Horizontal segments never span channels, so the negotiation decomposes
// exactly by channel: each channel's needs are negotiated independently (its
// own occupancy, history and present-cost schedule) on up to GOMAXPROCS
// goroutines and the results are committed serially in ascending channel
// order. The outcome is bit-identical at every GOMAXPROCS setting.
func RouteAllNegotiated(f *fabric.Fabric, routes []fabric.NetRoute, base Cost, cfg NegotiateConfig) int {
	cfg.setDefaults()

	var items []negItem
	for id := range routes {
		if !routes[id].Global {
			continue
		}
		for ci := range routes[id].Chans {
			if !routes[id].Chans[ci].Routed() {
				items = append(items, negItem{int32(id), ci})
			}
		}
	}
	if len(items) == 0 {
		return 0
	}
	// One attempt per channel need; the salvage RouteChan calls at commit
	// count their own attempts on top, as genuinely separate tries.
	f.Stats.DRouteAttempts += int64(len(items))
	// Ascending channel first (grouping the per-channel subproblems), then
	// longest intervals first within a channel: they have the fewest
	// alternatives, so they should claim resources first both during
	// negotiation and at commit. The (net, ci) tiebreak makes the ordering a
	// total one — a net with two equal-length intervals in different channels
	// would otherwise land in sort-instability-dependent order.
	sort.Slice(items, func(i, j int) bool {
		a1 := &routes[items[i].net].Chans[items[i].ci]
		a2 := &routes[items[j].net].Chans[items[j].ci]
		if a1.Ch != a2.Ch {
			return a1.Ch < a2.Ch
		}
		l1, l2 := a1.Hi-a1.Lo, a2.Hi-a2.Lo
		if l1 != l2 {
			return l1 > l2
		}
		if items[i].net != items[j].net {
			return items[i].net < items[j].net
		}
		return items[i].ci < items[j].ci
	})

	// Contiguous per-channel groups of the sorted item list.
	type group struct{ lo, hi int }
	var groups []group
	for lo := 0; lo < len(items); {
		ch := routes[items[lo].net].Chans[items[lo].ci].Ch
		hi := lo + 1
		for hi < len(items) && routes[items[hi].net].Chans[items[hi].ci].Ch == ch {
			hi++
		}
		groups = append(groups, group{lo, hi})
		lo = hi
	}

	// Negotiate each channel independently. Each channel writes its own
	// choices range and only reads f (no fabric mutation happens until
	// commit), so the pool is race-free; per-group results do not depend on
	// scheduling.
	choices := make([]negChoice, len(items))
	parallelIndex(len(groups), func(i int) {
		g := groups[i]
		negotiateChannel(f, routes, base, cfg, items[g.lo:g.hi], choices[g.lo:g.hi])
	})
	// Commit in item (= ascending channel) order.
	return commitChoices(f, routes, base, items, choices, cfg.FallbackAttempts, cfg.Seed+41)
}

// commitChoices installs the iterative backends' final track choices into f
// serially in item order: first come wins on residual conflicts, and
// conflict losers get a salvage attempt on whatever capacity remains
// (matters only when the instance is infeasible and the iteration could not
// converge). If needs stay unrouted, the classic ordered router with
// fallbackAttempts retry orderings, seeded from fallbackSeed, reroutes them,
// and whichever result loses fewer channel needs is kept, so an iterative
// backend is never a downgrade. Returns the number of needs left unrouted.
func commitChoices(f *fabric.Fabric, routes []fabric.NetRoute, base Cost, items []negItem, choices []negChoice, fallbackAttempts int, fallbackSeed int64) int {
	commit := func() int {
		failed := 0
		for i, it := range items {
			c := choices[i]
			ca := &routes[it.net].Chans[it.ci]
			if c.track >= 0 && f.HRangeFree(ca.Ch, c.track, c.segLo, c.segHi) {
				f.AllocH(ca.Ch, c.track, c.segLo, c.segHi, it.net)
				ca.Track, ca.SegLo, ca.SegHi = c.track, c.segLo, c.segHi
				continue
			}
			if RouteChan(f, it.net, &routes[it.net], it.ci, base) {
				continue
			}
			failed++ // the salvage RouteChan already counted the failure
		}
		return failed
	}
	ripItems := func() {
		for _, it := range items {
			if routes[it.net].Chans[it.ci].Routed() {
				UnrouteChan(f, it.net, &routes[it.net], it.ci)
			}
		}
	}
	failed := commit()
	if failed == 0 {
		return 0
	}
	ripItems()
	orderedFailed := RouteAllDetailed(f, routes, base, fallbackAttempts, rand.New(rand.NewSource(fallbackSeed)))
	if orderedFailed <= failed {
		return orderedFailed
	}
	ripItems()
	return commit()
}

// negotiateChannel runs the present/history negotiation loop for the needs of
// one channel (items, all sharing the same Ch), writing each item's final
// track selection into choices. It reads the fabric's current H ownership
// (pre-routed nets block their segments permanently) but never mutates f —
// commitment happens later, serially. The present-cost escalation and the
// convergence check are local to the channel: a hard-to-untangle channel no
// longer inflates the sharing penalty for channels that converged early.
func negotiateChannel(f *fabric.Fabric, routes []fabric.NetRoute, base Cost, cfg NegotiateConfig, items []negItem, choices []negChoice) {
	a := f.A
	ch := routes[items[0].net].Chans[items[0].ci].Ch

	// Occupancy and history over this channel's tracks, permitting
	// over-subscription during negotiation; segments already owned in the
	// fabric are permanently blocked.
	occ := make([][]int16, a.Tracks)
	hist := make([][]float64, a.Tracks)
	blocked := channelBlocked(f, ch)
	for t := 0; t < a.Tracks; t++ {
		n := len(a.Seg[t])
		occ[t] = make([]int16, n)
		hist[t] = make([]float64, n)
	}
	for i := range choices {
		choices[i].track = -1
	}

	pres := cfg.PresentBase
	for iter := 0; iter < cfg.MaxIters; iter++ {
		// Rip everything (occupancy only) and re-route in index order.
		for t := range occ {
			for s := range occ[t] {
				occ[t][s] = 0
			}
		}
		for i, it := range items {
			ca := &routes[it.net].Chans[it.ci]
			best := math.Inf(1)
			bt := -1
			var bl, bh int
			for t := 0; t < a.Tracks; t++ {
				sl, sh := a.SegRange(t, ca.Lo, ca.Hi)
				cost := 0.0
				feasible := true
				for s := sl; s <= sh; s++ {
					if blocked[t][s] {
						feasible = false
						break
					}
					share := float64(occ[t][s])
					cost += (1 + hist[t][s]) * (1 + pres*share)
				}
				if !feasible {
					continue
				}
				segs := a.Seg[t]
				waste := float64((segs[sh].End - segs[sl].Start) - (ca.Hi - ca.Lo + 1))
				cost += base.WWaste*waste + base.WSegs*float64(sh-sl+1)
				if cost < best {
					best, bt, bl, bh = cost, t, sl, sh
				}
			}
			choices[i] = negChoice{bt, bl, bh}
			if bt >= 0 {
				for s := bl; s <= bh; s++ {
					occ[bt][s]++
				}
			}
		}
		// Check for over-subscription; accrue history on contended segments.
		clean := true
		for i := range items {
			c := choices[i]
			if c.track < 0 {
				continue
			}
			for s := c.segLo; s <= c.segHi; s++ {
				if occ[c.track][s] > 1 {
					clean = false
					hist[c.track][s] += cfg.HistoryDelta
				}
			}
		}
		if clean {
			return
		}
		pres *= cfg.PresentGrow
	}
}

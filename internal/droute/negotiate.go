package droute

import (
	"math"
	"math/rand"

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
	Seed int64 // seed for the ordered-router fallback on non-convergent instances

	// FallbackAttempts is the ordering-retry budget of the ordered-router
	// fallback on non-convergent instances (default 8).
	FallbackAttempts int
}

// The negotiation schedule's constants. Keep each a separate operand where
// it is used: Go folds constant sub-expressions exactly, so two of them
// meeting in one expression would round once where run-time arithmetic
// rounds twice.
const (
	negotiateIters = 40  // negotiation iterations
	presentBase    = 0.5 // first-iteration sharing penalty
	presentGrow    = 1.6 // multiplicative growth per iteration
	historyDelta   = 1.0 // history added to each over-subscribed segment per iteration
)

func (c *NegotiateConfig) setDefaults() {
	if c.FallbackAttempts <= 0 {
		c.FallbackAttempts = 8
	}
}

// negChoice is an item's current (track, segLo, segHi); track == -1 when
// nothing is feasible.
type negChoice struct{ track, segLo, segHi int }

// RouteAllNegotiated detail-routes every unrouted channel need of the
// globally routed nets using congestion negotiation, then commits the final
// conflict-free assignments into f. Channel needs that still conflict after
// negotiateIters iterations (the loser keeps Track == -1) or that fit no
// track at all are counted in the returned failure total.
//
// Horizontal segments never span channels, so the negotiation decomposes
// exactly by channel: each channel's needs are negotiated independently (its
// own occupancy, history and present-cost schedule) on up to GOMAXPROCS
// goroutines and the results are committed serially in ascending channel
// order. The outcome is bit-identical at every GOMAXPROCS setting.
func RouteAllNegotiated(f *fabric.Fabric, routes []fabric.NetRoute, cfg NegotiateConfig) int {
	cfg.setDefaults()
	ns := needs(routes)
	if len(ns) == 0 {
		return 0
	}
	// One attempt per channel need; the salvage RouteChan calls at commit
	// count their own attempts on top, as genuinely separate tries.
	f.Stats.DRouteAttempts += int64(len(ns))
	// byChannel groups the per-channel subproblems, and its longest-first
	// order lets the needs with the fewest alternatives claim resources first
	// both during negotiation and at commit.
	bounds := byChannel(routes, ns)

	// Negotiate each channel independently. Each channel writes its own
	// choices range and only reads f (no fabric mutation happens until
	// commit), so the pool is race-free; per-channel results do not depend
	// on scheduling.
	choices := make([]negChoice, len(ns))
	parallelIndex(len(bounds)-1, func(k int) {
		lo, hi := bounds[k], bounds[k+1]
		negotiateChannel(f, routes, ns[lo:hi], choices[lo:hi])
	})
	// Commit in need (= ascending channel) order.
	return commitChoices(f, routes, ns, choices, cfg.FallbackAttempts, cfg.Seed+41)
}

// commitChoices installs the iterative backends' final track choices into f
// serially in item order: first come wins on residual conflicts, and
// conflict losers get a salvage attempt on whatever capacity remains
// (matters only when the instance is infeasible and the iteration could not
// converge). If needs stay unrouted, the classic ordered router with
// fallbackAttempts retry orderings, seeded from fallbackSeed, reroutes them,
// and whichever result loses fewer channel needs is kept, so an iterative
// backend is never a downgrade. Returns the number of needs left unrouted.
func commitChoices(f *fabric.Fabric, routes []fabric.NetRoute, ns []chanNeed, choices []negChoice, fallbackAttempts int, fallbackSeed int64) int {
	commit := func() int {
		failed := 0
		for i, n := range ns {
			c := choices[i]
			ca := &routes[n.net].Chans[n.ci]
			if c.track >= 0 && f.HRangeFree(ca.Ch, c.track, c.segLo, c.segHi) {
				f.AllocH(ca.Ch, c.track, c.segLo, c.segHi, n.net)
				ca.Track, ca.SegLo, ca.SegHi = c.track, c.segLo, c.segHi
				continue
			}
			if RouteChan(f, n.net, &routes[n.net], n.ci) {
				continue
			}
			failed++ // the salvage RouteChan already counted the failure
		}
		return failed
	}
	failed := commit()
	if failed == 0 {
		return 0
	}
	unroute(f, routes, ns)
	orderedFailed := RouteAllDetailed(f, routes, fallbackAttempts, rand.New(rand.NewSource(fallbackSeed)))
	if orderedFailed <= failed {
		return orderedFailed
	}
	unroute(f, routes, ns)
	return commit()
}

// negotiateChannel runs the present/history negotiation loop for the needs
// of one channel (ns, all sharing the same Ch), writing each need's final
// track selection into choices. It reads the fabric's current H ownership
// (pre-routed nets block their segments permanently) but never mutates f —
// commitment happens later, serially. The present-cost escalation and the
// convergence check are local to the channel: a hard-to-untangle channel no
// longer inflates the sharing penalty for channels that converged early.
func negotiateChannel(f *fabric.Fabric, routes []fabric.NetRoute, ns []chanNeed, choices []negChoice) {
	a := f.A
	ch := routes[ns[0].net].Chans[ns[0].ci].Ch

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

	pres := presentBase
	for iter := 0; iter < negotiateIters; iter++ {
		// Rip everything (occupancy only) and re-route in index order.
		for t := range occ {
			for s := range occ[t] {
				occ[t][s] = 0
			}
		}
		for i, n := range ns {
			ca := &routes[n.net].Chans[n.ci]
			best := math.Inf(1)
			bt := -1
			var bl, bh int
			for t := 0; t < a.Tracks; t++ {
				base, sl, sh := a.TrackCost(t, ca.Lo, ca.Hi)
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
				cost += float64(base)
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
		for i := range ns {
			c := choices[i]
			if c.track < 0 {
				continue
			}
			for s := c.segLo; s <= c.segHi; s++ {
				if occ[c.track][s] > 1 {
					clean = false
					hist[c.track][s] += historyDelta
				}
			}
		}
		if clean {
			return
		}
		pres *= presentGrow
	}
}

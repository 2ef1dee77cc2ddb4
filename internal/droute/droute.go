// Package droute implements detailed routing for segmented channels: picking,
// for each net in each channel, a track whose free consecutive segments cover
// the net's column interval. Track choice minimizes a weighted sum of segment
// wastage and segment count (after Greene et al. [8] and Roy [11]), which
// constructively prefers short, low-antifuse-count embeddings — the paper's
// substitute for an explicit wirelength cost term. The same primitive serves
// the incremental in-the-loop router and the sequential baseline's full
// channel router.
package droute

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/arch"
	"repro/internal/fabric"
)

// The track-selection weights: per column of allocated-but-unneeded segment
// length, and per segment used (each extra segment implies an antifuse).
// Keep each a separate operand where it is used, as the negotiation
// constants are.
const (
	wWaste = 1
	wSegs  = 4
)

// trackCost returns the cost of covering columns [lo, hi] on track t and the
// segments [sl, sh] that cover them: weighted wastage plus weighted segment
// count.
func trackCost(a *arch.Arch, t, lo, hi int) (c float64, sl, sh int) {
	sl, sh = a.SegRange(t, lo, hi)
	segs := a.Seg[t]
	waste := float64((segs[sh].End - segs[sl].Start) - (hi - lo + 1))
	return wWaste*waste + wSegs*float64(sh-sl+1), sl, sh
}

// PickTrack returns the cheapest feasible track for covering columns
// [lo, hi] in channel ch, or ok=false when no track has the needed free run.
// Only the tracks in the fabric's fit set are costed, in ascending order with
// a strict improvement test, so ties go to the lowest track.
func PickTrack(f *fabric.Fabric, ch, lo, hi int) (track, segLo, segHi int, ok bool) {
	best := math.Inf(1)
	track = -1
	for k, w := range f.HFit(ch, lo, hi) {
		for ; w != 0; w &= w - 1 {
			t := k<<6 + bits.TrailingZeros64(w)
			if c, sl, sh := trackCost(f.A, t, lo, hi); c < best {
				best, track, segLo, segHi = c, t, sl, sh
			}
		}
	}
	return track, segLo, segHi, track >= 0
}

// RouteChan detail-routes channel entry ci of net id's route, allocating the
// chosen segments. The entry must currently be unrouted. Returns false when
// no track can host the interval.
func RouteChan(f *fabric.Fabric, id int32, r *fabric.NetRoute, ci int) bool {
	f.Stats.DRouteAttempts++
	ca := &r.Chans[ci]
	t, sl, sh, ok := PickTrack(f, ca.Ch, ca.Lo, ca.Hi)
	if !ok {
		f.Stats.DRouteFails++
		return false
	}
	f.AllocH(ca.Ch, t, sl, sh, id)
	ca.Track, ca.SegLo, ca.SegHi = t, sl, sh
	return true
}

// UnrouteChan releases channel entry ci of net id's route and marks it
// unrouted.
func UnrouteChan(f *fabric.Fabric, id int32, r *fabric.NetRoute, ci int) {
	ca := &r.Chans[ci]
	f.FreeH(ca.Ch, ca.Track, ca.SegLo, ca.SegHi, id)
	ca.Track = -1
}

// chanNeed identifies one unrouted channel need of a full router: entry ci of
// net's route.
type chanNeed struct {
	net int32
	ci  int
}

// needs collects the unrouted channel needs of the globally routed nets in
// (net, entry) order.
func needs(routes []fabric.NetRoute) []chanNeed {
	var ns []chanNeed
	for id := range routes {
		if !routes[id].Global {
			continue
		}
		for ci := range routes[id].Chans {
			if !routes[id].Chans[ci].Routed() {
				ns = append(ns, chanNeed{int32(id), ci})
			}
		}
	}
	return ns
}

// byChannel sorts ns into routing order and returns the bounds of each
// channel's run: the k-th channel's needs are ns[bounds[k]:bounds[k+1]].
// The order is ascending channel, then longest interval first (those have
// the fewest alternatives, so they claim resources first), then (net,
// entry), which makes it a total order.
func byChannel(routes []fabric.NetRoute, ns []chanNeed) (bounds []int) {
	at := func(n chanNeed) *fabric.ChanAssign { return &routes[n.net].Chans[n.ci] }
	slices.SortFunc(ns, func(x, y chanNeed) int {
		a, b := at(x), at(y)
		switch {
		case a.Ch != b.Ch:
			return a.Ch - b.Ch
		case a.Hi-a.Lo != b.Hi-b.Lo:
			return (b.Hi - b.Lo) - (a.Hi - a.Lo)
		case x.net != y.net:
			return int(x.net) - int(y.net)
		}
		return x.ci - y.ci
	})
	for i := range ns {
		if i == 0 || at(ns[i]).Ch != at(ns[i-1]).Ch {
			bounds = append(bounds, i)
		}
	}
	return append(bounds, len(ns))
}

// RouteAllDetailed is the sequential baseline's full detailed router: each
// channel is routed independently, in byChannel order, longest interval
// first (the classic segmented-channel heuristic). If any of a channel's
// needs fail, attempts-1 randomized orderings are tried and the best (fewest
// failures) kept. Returns the total number of channel needs left unrouted.
func RouteAllDetailed(f *fabric.Fabric, routes []fabric.NetRoute, attempts int, rng *rand.Rand) int {
	ns := needs(routes)
	bounds := byChannel(routes, ns)
	failed := 0
	for k := 0; k+1 < len(bounds); k++ {
		failed += routeChannel(f, routes, ns[bounds[k]:bounds[k+1]], attempts, rng)
	}
	return failed
}

// routeChannel routes one channel's needs in order ns. If any fail, it draws
// attempts-1 seeds from rng and tries, on the fabric, the ordering each seed
// shuffles ns into. Every trial starts from the entries the first pass left
// unrouted, whose segment fields still name their last route. The earliest
// ordering with the fewest failures, ns itself counting first, is routed
// again from there and kept. f.Stats record only the first pass and the kept
// ordering. Returns the kept ordering's failures.
func routeChannel(f *fabric.Fabric, routes []fabric.NetRoute, ns []chanNeed, attempts int, rng *rand.Rand) int {
	failed := routeOrder(f, routes, ns)
	if failed == 0 || attempts < 2 {
		return failed
	}
	seeds := make([]int64, attempts-1)
	for k := range seeds {
		seeds[k] = rng.Int63()
	}
	stats := f.Stats
	unroute(f, routes, ns)
	left := make([]fabric.ChanAssign, len(ns))
	for i, n := range ns {
		left[i] = routes[n.net].Chans[n.ci]
	}
	best := ns
	for _, seed := range seeds {
		order := slices.Clone(ns)
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		trial := routeOrder(f, routes, order)
		if trial == 0 {
			return 0 // the fabric holds this ordering, counted once
		}
		if trial < failed {
			failed, best = trial, order
		}
		unroute(f, routes, ns)
		for i, n := range ns {
			routes[n.net].Chans[n.ci] = left[i]
		}
		f.Stats = stats
	}
	routeOrder(f, routes, best)
	return failed
}

// routeOrder routes the needs in order and returns how many fail.
func routeOrder(f *fabric.Fabric, routes []fabric.NetRoute, ns []chanNeed) int {
	failed := 0
	for _, n := range ns {
		if !RouteChan(f, n.net, &routes[n.net], n.ci) {
			failed++
		}
	}
	return failed
}

// unroute releases whichever of the needs are routed.
func unroute(f *fabric.Fabric, routes []fabric.NetRoute, ns []chanNeed) {
	for _, n := range ns {
		if routes[n.net].Chans[n.ci].Routed() {
			UnrouteChan(f, n.net, &routes[n.net], n.ci)
		}
	}
}

// Package droute implements detailed routing for segmented channels: picking,
// for each net in each channel, a track whose free consecutive segments cover
// the net's column interval. Track choice minimizes a weighted sum of segment
// wastage and segment count (arch.TrackCost, after Greene et al. [8] and
// Roy [11]), which constructively prefers short, low-antifuse-count
// embeddings — the paper's substitute for an explicit wirelength cost term.
// The same primitive serves the incremental in-the-loop router and the
// sequential baseline's full channel router.
package droute

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/arch"
	"repro/internal/fabric"
)

// PickTrack returns the cheapest feasible track for covering columns
// [lo, hi] in channel ch, or ok=false when no track has the needed free run.
// Only the tracks in the fabric's fit set are candidates, and ties go to the
// lowest track.
//
// A track's cost depends only on its class (arch.ClassMask) and the
// interval, so PickTrack walks the classes in ascending cost
// (arch.ClassOrder): the lowest free track of the first class that has one
// wins, unless a class tied with it has a lower one. With n free tracks the
// walk tests about Classes()/n classes before it finds one, so when n² is at
// most Classes() it costs the n tracks instead.
func PickTrack(f *fabric.Fabric, ch, lo, hi int) (track, segLo, segHi int, ok bool) {
	fit := f.HFit(ch, lo, hi)
	n := 0
	for _, w := range fit {
		n += bits.OnesCount64(w)
	}
	a := f.A
	switch {
	case n == 0:
		return -1, 0, 0, false
	case n*n <= a.Classes():
		return pickScan(a, fit, lo, hi)
	}
	track = -1
	for _, e := range a.ClassOrder(lo, hi) {
		if e&1 == 0 && track >= 0 {
			break // the classes left cost more
		}
		if t := lowestIn(fit, a.ClassMask(int(e>>1))); t >= 0 && (track < 0 || t < track) {
			track = t
		}
	}
	segLo, segHi = a.SegRange(track, lo, hi)
	return track, segLo, segHi, true
}

// pickScan is PickTrack by costing every track of fit, in ascending order
// with a strict improvement test.
func pickScan(a *arch.Arch, fit fabric.Bits, lo, hi int) (track, segLo, segHi int, ok bool) {
	best := math.MaxInt
	track = -1
	for k, w := range fit {
		for ; w != 0; w &= w - 1 {
			t := k<<6 + bits.TrailingZeros64(w)
			if c, sl, sh := a.TrackCost(t, lo, hi); c < best {
				best, track, segLo, segHi = c, t, sl, sh
			}
		}
	}
	return track, segLo, segHi, track >= 0
}

// lowestIn returns the lowest element in both fit and mask, or -1.
func lowestIn(fit fabric.Bits, mask []uint64) int {
	for k, w := range fit {
		if w &= mask[k]; w != 0 {
			return k<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
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
// unrouted, with no segment run.
func UnrouteChan(f *fabric.Fabric, id int32, r *fabric.NetRoute, ci int) {
	ca := &r.Chans[ci]
	f.FreeH(ca.Ch, ca.Track, ca.SegLo, ca.SegHi, id)
	ca.Track, ca.SegLo, ca.SegHi = -1, 0, 0
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
// shuffles ns into, each from all of ns unrouted. The earliest ordering with
// the fewest failures, ns itself counting first, is routed again and kept.
// f.Stats record only the first pass and the kept ordering. Returns the kept
// ordering's failures.
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

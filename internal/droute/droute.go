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
	"runtime"
	"sort"

	"repro/internal/fabric"
)

// Cost weights the two terms of the track-selection objective.
type Cost struct {
	WWaste float64 // per column of allocated-but-unneeded segment length
	WSegs  float64 // per segment used (each extra segment implies an antifuse)
}

// DefaultCost returns the weights used throughout the reproduction.
func DefaultCost() Cost { return Cost{WWaste: 1, WSegs: 4} }

// PickTrack returns the cheapest feasible track for covering columns
// [lo, hi] in channel ch, or ok=false when no track has the needed free run.
// Only the tracks in the fabric's fit set are costed, in ascending order with
// a strict improvement test, so ties go to the lowest track.
func PickTrack(f *fabric.Fabric, ch, lo, hi int, cost Cost) (track, segLo, segHi int, ok bool) {
	a := f.A
	best := math.Inf(1)
	track = -1
	for k, w := range f.HFit(ch, lo, hi) {
		for ; w != 0; w &= w - 1 {
			t := k<<6 + bits.TrailingZeros64(w)
			sl, sh := a.SegRange(t, lo, hi)
			segs := a.Seg[t]
			waste := float64((segs[sh].End - segs[sl].Start) - (hi - lo + 1))
			c := cost.WWaste*waste + cost.WSegs*float64(sh-sl+1)
			if c < best {
				best, track, segLo, segHi = c, t, sl, sh
			}
		}
	}
	return track, segLo, segHi, track >= 0
}

// RouteChan detail-routes channel entry ci of net id's route, allocating the
// chosen segments. The entry must currently be unrouted. Returns false when
// no track can host the interval.
func RouteChan(f *fabric.Fabric, id int32, r *fabric.NetRoute, ci int, cost Cost) bool {
	f.Stats.DRouteAttempts++
	ca := &r.Chans[ci]
	t, sl, sh, ok := PickTrack(f, ca.Ch, ca.Lo, ca.Hi, cost)
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

// RouteNet attempts to detail-route every unrouted channel of a globally
// routed net. It returns the number of channels that remain unrouted.
func RouteNet(f *fabric.Fabric, id int32, r *fabric.NetRoute, cost Cost) int {
	missing := 0
	for ci := range r.Chans {
		if r.Chans[ci].Routed() {
			continue
		}
		if !RouteChan(f, id, r, ci, cost) {
			missing++
		}
	}
	return missing
}

// chanItem identifies one channel need of one net during full routing.
type chanItem struct {
	net int32
	ci  int
	len int
}

// RouteAllDetailed is the sequential baseline's full detailed router: each
// channel is routed independently. Nets are first ordered longest-interval
// first (the classic segmented-channel heuristic); if any fail, additional
// randomized orderings are tried and the best assignment (fewest failures)
// kept. Returns the total number of channel needs left unrouted.
//
// Retry orderings for one channel are evaluated concurrently on up to
// GOMAXPROCS workers; see RouteAllDetailedWorkers for the determinism
// contract.
func RouteAllDetailed(f *fabric.Fabric, routes []fabric.NetRoute, cost Cost, attempts int, rng *rand.Rand) int {
	return RouteAllDetailedWorkers(f, routes, cost, attempts, rng, 0)
}

// RouteAllDetailedWorkers is RouteAllDetailed with an explicit cap on how
// many retry orderings are evaluated concurrently (0 = GOMAXPROCS).
//
// Workers is scheduling only: each retry ordering gets its own RNG seeded
// from a value drawn serially from rng before any attempt runs, and is
// evaluated as a pure simulation against a frozen snapshot of the channel's
// occupancy — attempts share no mutable state. The winner (fewest failures,
// lowest attempt index on ties, with the deterministic longest-first
// ordering as attempt zero) is then replayed into the fabric serially, so
// results are bit-identical for every worker count and GOMAXPROCS setting.
func RouteAllDetailedWorkers(f *fabric.Fabric, routes []fabric.NetRoute, cost Cost, attempts int, rng *rand.Rand, workers int) int {
	if attempts < 1 {
		attempts = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	totalFailed := 0
	for ch := 0; ch < f.A.Channels(); ch++ {
		var items []chanItem
		for id := range routes {
			if !routes[id].Global {
				continue
			}
			for ci := range routes[id].Chans {
				ca := &routes[id].Chans[ci]
				if ca.Ch == ch && !ca.Routed() {
					items = append(items, chanItem{net: int32(id), ci: ci, len: ca.Hi - ca.Lo})
				}
			}
		}
		if len(items) == 0 {
			continue
		}
		sort.Slice(items, func(i, j int) bool {
			if items[i].len != items[j].len {
				return items[i].len > items[j].len
			}
			if items[i].net != items[j].net {
				return items[i].net < items[j].net
			}
			return items[i].ci < items[j].ci
		})
		bestFailed := routeChannelOrder(f, routes, items, cost)
		if bestFailed > 0 && attempts > 1 {
			// Per-attempt RNG splitting: seeds are drawn serially from the
			// caller's stream (fixed-seed results survive), then the shuffled
			// orderings are simulated concurrently against a frozen snapshot
			// of the channel.
			seeds := make([]int64, attempts-1)
			for k := range seeds {
				seeds[k] = rng.Int63()
			}
			unrouteChannel(f, routes, items)
			blocked := channelBlocked(f, ch)
			orders := make([][]chanItem, attempts)
			fails := make([]int, attempts)
			orders[0], fails[0] = items, bestFailed
			parallelIndex(min(workers, attempts-1), attempts-1, func(k int) {
				order := append([]chanItem(nil), items...)
				r := rand.New(rand.NewSource(seeds[k]))
				r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				orders[k+1], fails[k+1] = order, simulateOrder(f, routes, blocked, order, cost)
			})
			best := 0
			for k := 1; k < attempts; k++ {
				if fails[k] < fails[best] {
					best = k
				}
			}
			bestFailed = routeChannelOrder(f, routes, orders[best], cost)
		}
		totalFailed += bestFailed
	}
	return totalFailed
}

// simulateOrder counts how many channel needs a given routing order would
// fail to embed, mirroring routeChannelOrder/PickTrack exactly but against a
// private occupancy copy instead of the fabric — it mutates nothing, so
// concurrent simulations of different orders are race-free.
func simulateOrder(f *fabric.Fabric, routes []fabric.NetRoute, blocked [][]bool, items []chanItem, cost Cost) int {
	a := f.A
	occ := make([][]bool, len(blocked))
	for t := range blocked {
		occ[t] = append([]bool(nil), blocked[t]...)
	}
	failed := 0
	for _, it := range items {
		ca := &routes[it.net].Chans[it.ci]
		best := math.Inf(1)
		bt := -1
		var bl, bh int
		for t := 0; t < a.Tracks; t++ {
			sl, sh := a.SegRange(t, ca.Lo, ca.Hi)
			free := true
			for s := sl; s <= sh; s++ {
				if occ[t][s] {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			segs := a.Seg[t]
			waste := float64((segs[sh].End - segs[sl].Start) - (ca.Hi - ca.Lo + 1))
			c := cost.WWaste*waste + cost.WSegs*float64(sh-sl+1)
			if c < best {
				best, bt, bl, bh = c, t, sl, sh
			}
		}
		if bt < 0 {
			failed++
			continue
		}
		for s := bl; s <= bh; s++ {
			occ[bt][s] = true
		}
	}
	return failed
}

func routeChannelOrder(f *fabric.Fabric, routes []fabric.NetRoute, items []chanItem, cost Cost) int {
	failed := 0
	for _, it := range items {
		if !RouteChan(f, it.net, &routes[it.net], it.ci, cost) {
			failed++
		}
	}
	return failed
}

func unrouteChannel(f *fabric.Fabric, routes []fabric.NetRoute, items []chanItem) {
	for _, it := range items {
		if routes[it.net].Chans[it.ci].Routed() {
			UnrouteChan(f, it.net, &routes[it.net], it.ci)
		}
	}
}

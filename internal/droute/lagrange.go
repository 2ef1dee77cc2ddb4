package droute

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fabric"
)

// Backend names a full detailed-routing algorithm. The zero value selects the
// paper-era ordered router.
type Backend string

const (
	// BackendOrdered is the paper's sequential router: longest-first single
	// pass per channel with randomized-ordering retries ([8][11]).
	BackendOrdered Backend = "ordered"
	// BackendNegotiated is the PathFinder-style negotiated-congestion router
	// (RouteAllNegotiated): channels negotiate independently in parallel.
	BackendNegotiated Backend = "negotiated"
	// BackendLagrange is the Lagrangian-relaxation router (RouteAllLagrange):
	// nets route independently in parallel against shared congestion prices.
	BackendLagrange Backend = "lagrange"
)

// ParseBackend validates a backend name from a flag or API field. The empty
// string selects BackendOrdered, keeping every pre-existing configuration
// bit-identical.
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "", BackendOrdered:
		return BackendOrdered, nil
	case BackendNegotiated:
		return BackendNegotiated, nil
	case BackendLagrange:
		return BackendLagrange, nil
	}
	return "", fmt.Errorf("droute: unknown router backend %q (want %q, %q or %q)",
		s, BackendOrdered, BackendNegotiated, BackendLagrange)
}

// LagrangeConfig tunes the Lagrangian-relaxation full detailed router. The
// scheme follows the parallel FPGA routers built on Lagrangian relaxation
// (ParaLarH and the sub-gradient Steiner router): capacity constraints are
// priced rather than enforced, every net independently picks its cheapest
// track under the current prices, and a projected sub-gradient step raises
// the price of over-subscribed segments between iterations.
type LagrangeConfig struct {
	// MaxIters caps the price-update iterations (default 24). The loop exits
	// early as soon as an iteration produces no over-subscribed segment.
	MaxIters int
	// Seed feeds the per-net tie-break RNGs and the ordered-router fallback.
	Seed int64
	// FallbackAttempts is the ordering-retry budget of the ordered-router
	// fallback on instances the relaxation cannot fully embed (default 8).
	FallbackAttempts int
}

// lagrangeStep is the initial sub-gradient step size; iteration t uses
// lagrangeStep/√(t+1), the classic diminishing schedule that guarantees
// sub-gradient convergence.
const lagrangeStep = 1.0

func (c *LagrangeConfig) setDefaults() {
	if c.MaxIters <= 0 {
		c.MaxIters = 24
	}
	if c.FallbackAttempts <= 0 {
		c.FallbackAttempts = 8
	}
}

// lagChannel is the priced view of one channel: λ ≥ 0 per (track, segment),
// the occupancy of the current iteration's choices, and the segments already
// owned in the fabric (blocked at any price).
type lagChannel struct {
	price   [][]float64
	occ     [][]int16
	blocked [][]bool
}

// RouteAllLagrange detail-routes every unrouted channel need of the globally
// routed nets by Lagrangian relaxation, then commits the final assignment
// into f. Returns the number of channel needs left unrouted.
//
// Each iteration proceeds in three strictly separated steps. First, every
// net independently picks the track minimizing base cost plus the summed
// congestion prices λ of the segments it would occupy — this step runs on up
// to GOMAXPROCS goroutines against a frozen price snapshot, each item
// writing only its own choice slot, so it is embarrassingly parallel and
// schedule-independent. Second, occupancy is accumulated serially and the
// iteration terminates the loop if no segment is over-subscribed. Third, a
// projected sub-gradient step updates the prices: λ ← max(0, λ + αt·(occ−1))
// with αt = lagrangeStep/√(t+1), raising prices on contended segments and
// decaying them on idle ones. Equal-cost track ties are broken by a per-net RNG split
// deterministically from (Seed, net, channel index), which decorrelates
// symmetric nets (otherwise they would all migrate to the same alternative
// track each iteration and oscillate) without making the outcome depend on
// scheduling. Commitment is serial in ascending (net, channel-index) order
// with first-come-wins on residual conflicts and a salvage RouteChan for the
// losers; if needs remain unrouted, the ordered router with retry orderings
// runs as a fallback and the better result is kept, so the relaxation is
// never a downgrade. Results are bit-identical for fixed (Seed, MaxIters)
// at every GOMAXPROCS setting.
func RouteAllLagrange(f *fabric.Fabric, routes []fabric.NetRoute, cfg LagrangeConfig) int {
	cfg.setDefaults()
	ns := needs(routes)
	chOf := func(n chanNeed) int { return routes[n.net].Chans[n.ci].Ch }
	if len(ns) == 0 {
		return 0
	}
	// Each need has a dedicated tie-break RNG.
	rngs := make([]*rand.Rand, len(ns))
	for i, n := range ns {
		rngs[i] = rand.New(rand.NewSource(splitSeed(cfg.Seed, n.net, n.ci)))
	}
	// One attempt per channel need; salvage and fallback RouteChan calls
	// count their own attempts on top, as genuinely separate tries.
	f.Stats.DRouteAttempts += int64(len(ns))

	a := f.A
	chans := make([]*lagChannel, a.Channels())
	for _, n := range ns {
		ch := chOf(n)
		if chans[ch] != nil {
			continue
		}
		lc := &lagChannel{
			price:   make([][]float64, a.Tracks),
			occ:     make([][]int16, a.Tracks),
			blocked: channelBlocked(f, ch),
		}
		for t := 0; t < a.Tracks; t++ {
			n := len(a.Seg[t])
			lc.price[t] = make([]float64, n)
			lc.occ[t] = make([]int16, n)
		}
		chans[ch] = lc
	}

	choices := make([]negChoice, len(ns))
	for iter := 0; iter < cfg.MaxIters; iter++ {
		// Step 1: parallel per-net track choice against frozen prices.
		parallelIndex(len(ns), func(i int) {
			choices[i] = lagrangeChoose(f, routes, chans[chOf(ns[i])], ns[i], rngs[i])
		})
		// Step 2: serial occupancy accumulation.
		for _, lc := range chans {
			if lc == nil {
				continue
			}
			for t := range lc.occ {
				clear(lc.occ[t])
			}
		}
		for i, n := range ns {
			c := choices[i]
			if c.track < 0 {
				continue
			}
			occ := chans[chOf(n)].occ[c.track]
			for s := c.segLo; s <= c.segHi; s++ {
				occ[s]++
			}
		}
		// Step 3: projected sub-gradient price update; exit when feasible.
		step := lagrangeStep / math.Sqrt(float64(iter+1))
		over := 0
		for _, lc := range chans {
			if lc == nil {
				continue
			}
			for t := range lc.occ {
				price := lc.price[t]
				for s, o := range lc.occ[t] {
					switch g := int(o) - 1; {
					case g > 0:
						price[s] += step * float64(g)
						over++
					case g < 0 && price[s] > 0:
						price[s] = math.Max(0, price[s]-step)
					}
				}
			}
		}
		if over == 0 {
			break
		}
	}

	// Commit in ascending (net, ci) order.
	return commitChoices(f, routes, ns, choices, cfg.FallbackAttempts, cfg.Seed+43)
}

// lagrangeChoose picks the track minimizing base cost plus summed congestion
// prices for one channel need. It reads only the frozen per-channel prices
// and blocked matrix — never the fabric's mutable state or other items'
// choices — so concurrent calls for distinct items are race-free and
// schedule-independent. Exact cost ties are broken by reservoir sampling on
// the item's own RNG: the stream advances only with this item's tie count,
// which is itself a pure function of the frozen prices, so the draw sequence
// is identical no matter which goroutine runs the item or when.
func lagrangeChoose(f *fabric.Fabric, routes []fabric.NetRoute, lc *lagChannel, n chanNeed, rng *rand.Rand) negChoice {
	a := f.A
	ca := &routes[n.net].Chans[n.ci]
	best := math.Inf(1)
	bt := -1
	var bl, bh int
	ties := 0
	for t := 0; t < a.Tracks; t++ {
		base, sl, sh := a.TrackCost(t, ca.Lo, ca.Hi)
		price := 0.0
		feasible := true
		for s := sl; s <= sh; s++ {
			if lc.blocked[t][s] {
				feasible = false
				break
			}
			price += lc.price[t][s]
		}
		if !feasible {
			continue
		}
		cost := float64(base) + price
		switch {
		case cost < best:
			best, bt, bl, bh = cost, t, sl, sh
			ties = 1
		case cost == best:
			ties++
			if rng.Intn(ties) == 0 {
				bt, bl, bh = t, sl, sh
			}
		}
	}
	return negChoice{bt, bl, bh}
}

// channelBlocked snapshots which (track, segment) slots of channel ch are
// already owned in the fabric.
func channelBlocked(f *fabric.Fabric, ch int) [][]bool {
	a := f.A
	blocked := make([][]bool, a.Tracks)
	for t := 0; t < a.Tracks; t++ {
		n := len(a.Seg[t])
		blocked[t] = make([]bool, n)
		for s := 0; s < n; s++ {
			blocked[t][s] = f.HOwner(ch, t, s) != fabric.Free
		}
	}
	return blocked
}

// parallelIndex runs fn(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines. Work is handed out in chunks via an atomic cursor; fn must
// touch only state owned by index i, which makes the execution order
// unobservable and the result schedule-independent.
func parallelIndex(n int, fn func(int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Chunks of up to 16 amortize the cursor over many cheap items (nets),
	// yet a few expensive ones (channels) still get one chunk each so that
	// every worker takes a share.
	chunk := max(1, min(16, n/(4*workers)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := min(lo+chunk, n)
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// splitSeed derives the per-item RNG seed from the backend seed and the
// item's (net, channel-index) identity via SplitMix64 — statistically
// independent streams from sequential identifiers, and stable no matter how
// many other items exist or in what order they are built.
func splitSeed(seed int64, net int32, ci int) int64 {
	z := splitmix64(uint64(seed))
	z = splitmix64(z ^ uint64(uint32(net))<<20 ^ uint64(uint32(ci)))
	return int64(z)
}

func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

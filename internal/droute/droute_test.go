package droute

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/metrics"
)

// singleTrackArch builds a 1-row architecture whose single track is cut into
// exactly the given segments — used to script Figure-2-style scenarios.
func singleTrackArch(t *testing.T, segLens []int, tracks int) *arch.Arch {
	t.Helper()
	cols := 0
	for _, l := range segLens {
		cols += l
	}
	p := arch.Default(1, cols, tracks)
	p.SegPattern = segLens
	p.PhaseStep = 0 // all tracks identical so the scenario is exact
	return arch.MustNew(p)
}

func need(ch, lo, hi int) fabric.NetRoute {
	return fabric.NetRoute{Global: true, Chans: []fabric.ChanAssign{{Ch: ch, Lo: lo, Hi: hi, Track: -1}}}
}

func TestPickTrackMinimizesWastage(t *testing.T) {
	// Two tracks with different segmentation: track 0 = [0,4)[4,8), track 1
	// phase-shifted. Interval [1,2] fits in track 0's first segment with
	// wastage 2.
	p := arch.Default(1, 8, 2)
	p.SegPattern = []int{4}
	p.PhaseStep = 2 // track 1 = [0,2)[2,6)[6,8)
	a := arch.MustNew(p)
	f := fabric.New(a)
	tr, sl, sh, ok := PickTrack(f, 0, 2, 3)
	if !ok {
		t.Fatal("no track found")
	}
	// Track 0 seg [0,4): waste 2, 1 segment -> cost 2+4 = 6.
	// Track 1 seg [2,6): waste 2, 1 segment -> same cost; tie goes to track 0.
	if tr != 0 || sl != sh {
		t.Errorf("picked track %d segs [%d,%d]", tr, sl, sh)
	}
	// Interval [0,1]: track 0 waste 2 (seg [0,4)), track 1 waste 0 (seg [0,2)).
	tr, _, _, ok = PickTrack(f, 0, 0, 1)
	if !ok || tr != 1 {
		t.Errorf("interval [0,1] picked track %d, want 1 (zero wastage)", tr)
	}
}

func TestPickTrackPrefersFewerSegments(t *testing.T) {
	// Track 0: [0,2)[2,4)[4,6)[6,8); track 1: [0,8). Interval [1,6] needs 3
	// segments on track 0 (waste 1, cost 1+12=13) vs 1 segment on track 1
	// (waste 2, cost 2+4=6).
	p := arch.Default(1, 8, 2)
	p.SegPattern = []int{2, 2, 2, 2, 8}
	p.PhaseStep = 8
	a := arch.MustNew(p)
	if len(a.Seg[1]) != 1 {
		t.Fatalf("track 1 segmentation unexpected: %v", a.Seg[1])
	}
	f := fabric.New(a)
	tr, _, _, ok := PickTrack(f, 0, 1, 6)
	if !ok || tr != 1 {
		t.Errorf("picked track %d, want 1 (fewer antifuses)", tr)
	}
}

// TestFigure2Scenario reconstructs the paper's Figure 2: with rigid
// segmentation, the placement with the smaller total net length is
// unroutable, while an alternative (longer) placement routes completely.
// Single track cut as [0,2)[2,6)[6,8); three two-pin nets.
func TestFigure2Scenario(t *testing.T) {
	a := singleTrackArch(t, []int{2, 4, 2}, 1)
	f := fabric.New(a)

	// "Left" placement: N1=[0,1], N2=[2,3], N3=[4,5]. Total length 3.
	routes := []fabric.NetRoute{need(0, 0, 1), need(0, 2, 3), need(0, 4, 5)}
	okCount := 0
	for id := range routes {
		if RouteChan(f, int32(id), &routes[id], 0) {
			okCount++
		}
	}
	if okCount != 2 {
		t.Fatalf("left placement: %d/3 nets routed, want exactly 2 (N2/N3 share segment [2,6))", okCount)
	}

	// "Right" placement (cell B moved): N1=[0,1], N2=[6,7], N3=[2,5].
	// Total length 5 — longer, yet fully routable.
	f.Reset()
	routes = []fabric.NetRoute{need(0, 0, 1), need(0, 6, 7), need(0, 2, 5)}
	for id := range routes {
		if !RouteChan(f, int32(id), &routes[id], 0) {
			t.Fatalf("right placement: net %d failed", id)
		}
	}
	if err := f.CheckConsistent(routes); err != nil {
		t.Error(err)
	}
}

func TestRouteChanLeavesBlockedChannel(t *testing.T) {
	a := singleTrackArch(t, []int{4, 4}, 1)
	f := fabric.New(a)
	// Net needs channels 0 and 1; block channel 1 entirely.
	f.AllocH(1, 0, 0, 1, 99)
	r := fabric.NetRoute{Global: true, Chans: []fabric.ChanAssign{
		{Ch: 0, Lo: 0, Hi: 3, Track: -1},
		{Ch: 1, Lo: 0, Hi: 3, Track: -1},
	}}
	if !RouteChan(f, 1, &r, 0) {
		t.Fatal("free channel 0 did not route")
	}
	if RouteChan(f, 1, &r, 1) {
		t.Fatal("blocked channel 1 routed")
	}
	if !r.Chans[0].Routed() || r.Chans[1].Routed() || r.UnroutedChans() != 1 {
		t.Error("wrong channel routed")
	}
	if r.DetailDone() {
		t.Error("route with missing channel reported done")
	}
	if f.Stats.DRouteAttempts != 2 || f.Stats.DRouteFails != 1 {
		t.Errorf("stats %+v, want 2 attempts and 1 failure", f.Stats)
	}
}

func TestUnrouteChan(t *testing.T) {
	a := singleTrackArch(t, []int{4, 4}, 2)
	f := fabric.New(a)
	r := need(0, 1, 6)
	if !RouteChan(f, 5, &r, 0) {
		t.Fatal("route failed")
	}
	if r.Chans[0].SegHi == 0 {
		t.Fatal("route took one segment; want a run to clear")
	}
	UnrouteChan(f, 5, &r, 0)
	if f.UsedH() != 0 {
		t.Error("segments leaked")
	}
	// Nothing the layout format does not carry for an open entry stays set.
	if want := (fabric.ChanAssign{Ch: 0, Lo: 1, Hi: 6, Track: -1}); r.Chans[0] != want {
		t.Errorf("unrouted entry %+v, want %+v", r.Chans[0], want)
	}
}

func TestRouteAllDetailedOrderingMatters(t *testing.T) {
	// One track [0,2)[2,6)[6,8), second track [0,8).
	p := arch.Default(1, 8, 2)
	p.SegPattern = []int{2, 4, 2, 8}
	p.PhaseStep = 8
	a := arch.MustNew(p)
	f := fabric.New(a)
	// Three nets: [2,5] (fits track0 seg1 exactly or track1), [0,7] (only
	// track 1), [6,7] (track0 seg2 or track1). Longest-first ordering routes
	// [0,7] onto track 1 first, leaving the exact fits for track 0.
	routes := []fabric.NetRoute{need(0, 2, 5), need(0, 0, 7), need(0, 6, 7)}
	failed := RouteAllDetailed(f, routes, 1, rand.New(rand.NewSource(1)))
	if failed != 0 {
		t.Fatalf("failed = %d, want 0", failed)
	}
	if err := f.CheckConsistent(routes); err != nil {
		t.Error(err)
	}
}

func TestRouteAllDetailedRetriesHelp(t *testing.T) {
	// Craft a channel where greedy longest-first fails but some ordering
	// succeeds. Track A: [0,4)[4,8); track B: [0,8).
	// Nets: x=[0,3], y=[4,7], z=[2,5].
	// Longest-first ties (all length 3); deterministic tie-break routes x
	// first. x->A(seg0, waste 0) ... z needs A segs 0-1 or B. If x takes A0
	// and y takes A1, z takes B: all route. Hard to make greedy fail without
	// wastage ties, so instead verify retries never hurt: result with 8
	// attempts <= result with 1 attempt.
	p := arch.Default(1, 8, 2)
	p.SegPattern = []int{4, 4, 8}
	p.PhaseStep = 8
	a := arch.MustNew(p)
	mk := func() []fabric.NetRoute {
		return []fabric.NetRoute{need(0, 0, 3), need(0, 4, 7), need(0, 2, 5), need(0, 0, 7)}
	}
	f1 := fabric.New(a)
	r1 := mk()
	fail1 := RouteAllDetailed(f1, r1, 1, rand.New(rand.NewSource(1)))
	f8 := fabric.New(a)
	r8 := mk()
	fail8 := RouteAllDetailed(f8, r8, 8, rand.New(rand.NewSource(1)))
	if fail8 > fail1 {
		t.Errorf("more attempts made things worse: %d vs %d", fail8, fail1)
	}
	if err := f8.CheckConsistent(r8); err != nil {
		t.Error(err)
	}
}

// The retry search keeps the earliest ordering with the fewest failures,
// the longest-first pass counting first, and f.Stats count only the first
// pass and the kept ordering. The reference routes every ordering on its own
// copy of the starting fabric.
func TestRetrySearchKeepsBestOrdering(t *testing.T) {
	replayed, early := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := arch.Default(1, 10+rng.Intn(20), 2+rng.Intn(3))
		p.SegPattern = []int{1 + rng.Intn(4), 2 + rng.Intn(6)}
		p.PhaseStep = rng.Intn(4)
		a := arch.MustNew(p)
		start := make([]fabric.NetRoute, 4+rng.Intn(10))
		for i := range start {
			lo := rng.Intn(a.Cols)
			start[i] = need(0, lo, lo+rng.Intn(min(a.Cols-lo, 8)))
		}
		attempts := 2 + rng.Intn(6)
		clone := func() []fabric.NetRoute {
			rs := make([]fabric.NetRoute, len(start))
			for i := range start {
				rs[i] = start[i].Clone()
			}
			return rs
		}
		routeOn := func(f *fabric.Fabric, rs []fabric.NetRoute, order []chanNeed) int {
			failed := 0
			for _, n := range order {
				if !RouteChan(f, n.net, &rs[n.net], n.ci) {
					failed++
				}
			}
			return failed
		}

		// Reference: orderings[0] is longest-first, the rest its shuffles.
		// The first pass is unrouted and the best ordering routed on the
		// same fabric and routes, so unrouted entries keep the segment
		// fields the first pass left them.
		refF, want := fabric.New(a), clone()
		first := needs(want)
		byChannel(want, first)
		seedRNG := rand.New(rand.NewSource(seed))
		orderings := [][]chanNeed{first}
		for k := 1; k < attempts; k++ {
			order := append([]chanNeed(nil), first...)
			rand.New(rand.NewSource(seedRNG.Int63())).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			orderings = append(orderings, order)
		}
		firstFailed := routeOn(refF, want, first)
		best, bestFailed := 0, firstFailed
		for k := 1; k < attempts && firstFailed > 0; k++ {
			if n := routeOn(fabric.New(a), clone(), orderings[k]); n < bestFailed {
				best, bestFailed = k, n
			}
		}
		if firstFailed > 0 {
			for _, n := range first {
				if want[n.net].Chans[n.ci].Routed() {
					UnrouteChan(refF, n.net, &want[n.net], n.ci)
				}
			}
			routeOn(refF, want, orderings[best])
		}

		f, got := fabric.New(a), clone()
		failed := RouteAllDetailed(f, got, attempts, rand.New(rand.NewSource(seed)))
		if failed != bestFailed {
			t.Fatalf("seed %d: %d failed, reference %d", seed, failed, bestFailed)
		}
		for i := range want {
			if !got[i].Equal(&want[i]) {
				t.Fatalf("seed %d: net %d route %+v, reference %+v", seed, i, got[i].Chans, want[i].Chans)
			}
		}
		wantStats := metrics.Work{DRouteAttempts: int64(len(first)), DRouteFails: int64(firstFailed)}
		if firstFailed > 0 {
			wantStats.DRouteAttempts *= 2
			wantStats.DRouteFails += int64(bestFailed)
			if bestFailed == 0 {
				early++
			} else {
				replayed++
			}
		}
		if f.Stats != wantStats {
			t.Fatalf("seed %d: stats %+v, want %+v", seed, f.Stats, wantStats)
		}
		if err := f.CheckConsistent(got); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if replayed == 0 || early == 0 {
		t.Fatalf("retry paths not both exercised: %d replayed, %d ended early", replayed, early)
	}
}

// Property: random intervals on random segmentations — RouteChan either
// fails cleanly or produces a covering, consistent assignment; unrouting
// everything restores an empty fabric.
func TestRouteChanProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := arch.Default(2, 6+rng.Intn(30), 1+rng.Intn(5))
		p.SegPattern = []int{1 + rng.Intn(6), 1 + rng.Intn(9), 1 + rng.Intn(4)}
		p.PhaseStep = rng.Intn(5)
		a, err := arch.New(p)
		if err != nil {
			return false
		}
		f := fabric.New(a)
		var routes []fabric.NetRoute
		for i := 0; i < 25; i++ {
			ch := rng.Intn(a.Channels())
			lo := rng.Intn(a.Cols)
			hi := lo + rng.Intn(a.Cols-lo)
			routes = append(routes, need(ch, lo, hi))
		}
		for id := range routes {
			RouteChan(f, int32(id), &routes[id], 0)
		}
		if err := f.CheckConsistent(routes); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for id := range routes {
			if routes[id].Chans[0].Routed() {
				UnrouteChan(f, int32(id), &routes[id], 0)
			}
		}
		return f.UsedH() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

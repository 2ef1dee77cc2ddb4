package droute

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/groute"
	"repro/internal/layout"
	"repro/internal/netgen"
)

func TestParseBackend(t *testing.T) {
	for s, want := range map[string]Backend{
		"": BackendOrdered, "ordered": BackendOrdered,
		"negotiated": BackendNegotiated, "lagrange": BackendLagrange,
	} {
		got, err := ParseBackend(s)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %q, %v; want %q", s, got, err, want)
		}
	}
	for _, s := range []string{"pathfinder", "LAGRANGE", "ordered "} {
		if _, err := ParseBackend(s); err == nil {
			t.Errorf("ParseBackend(%q) accepted", s)
		}
	}
}

// TestLagrangeParallelInvariance pins the determinism contract of the
// net-parallel Lagrangian router: for a fixed (seed, iteration cap), every
// GOMAXPROCS must produce the identical layout — same failure count, same
// track/segment assignment for every channel need of every net. Under -race
// (the CI race gate covers this package) it additionally proves the choice
// pass shares no mutable state across goroutines.
func TestLagrangeParallelInvariance(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "lw", Inputs: 5, Outputs: 4, Seq: 2, Comb: 45, Seed: 87})
	if err != nil {
		t.Fatal(err)
	}
	for _, tracks := range []int{10, 14} {
		for seed := int64(0); seed < 3; seed++ {
			a := arch.MustNew(arch.Default(6, 16, tracks))
			pl, err := layout.NewRandom(a, nl, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			route := func(procs int) (int, *fabric.Fabric, []fabric.NetRoute) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				f := fabric.New(a)
				routes := make([]fabric.NetRoute, nl.NumNets())
				if gf := groute.RouteAll(f, pl, routes); len(gf) > 0 {
					t.Skipf("global routing failed at %d tracks", tracks)
				}
				failed := RouteAllLagrange(f, routes, DefaultCost(), LagrangeConfig{Seed: seed})
				return failed, f, routes
			}
			refFailed, refF, refRoutes := route(1)
			if err := refF.CheckConsistent(refRoutes); err != nil {
				t.Fatalf("tracks=%d seed=%d GOMAXPROCS=1: %v", tracks, seed, err)
			}
			refKey := routeKey(refRoutes)
			for _, procs := range []int{4, 16, 0} {
				failed, f, routes := route(procs)
				if failed != refFailed {
					t.Errorf("tracks=%d seed=%d GOMAXPROCS=%d: %d failed, want %d",
						tracks, seed, procs, failed, refFailed)
				}
				if !equalKeys(routeKey(routes), refKey) {
					t.Errorf("tracks=%d seed=%d GOMAXPROCS=%d: layout differs from GOMAXPROCS=1",
						tracks, seed, procs)
				}
				if err := f.CheckConsistent(routes); err != nil {
					t.Fatalf("tracks=%d seed=%d GOMAXPROCS=%d: %v", tracks, seed, procs, err)
				}
			}
		}
	}
}

// TestLagrangeGOMAXPROCSInvariance re-runs the Lagrangian router under GOMAXPROCS=1 and checks the result matches a fully parallel
// run — the same scheduling-independence contract the negotiated router and
// the parallel annealer pin.
func TestLagrangeGOMAXPROCSInvariance(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "lg", Inputs: 4, Outputs: 3, Seq: 2, Comb: 36, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 14, 12))
	pl, err := layout.NewRandom(a, nl, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	route := func() (int, [][]fabric.ChanAssign) {
		f := fabric.New(a)
		routes := make([]fabric.NetRoute, nl.NumNets())
		if gf := groute.RouteAll(f, pl, routes); len(gf) > 0 {
			t.Skip("global routing failed")
		}
		failed := RouteAllLagrange(f, routes, DefaultCost(), LagrangeConfig{Seed: 3})
		return failed, routeKey(routes)
	}
	wideFailed, wideKey := route()
	prev := runtime.GOMAXPROCS(1)
	oneFailed, oneKey := route()
	runtime.GOMAXPROCS(prev)
	if wideFailed != oneFailed || !equalKeys(wideKey, oneKey) {
		t.Errorf("GOMAXPROCS=1 result differs: %d failed vs %d", oneFailed, wideFailed)
	}
}

// The Lagrangian router's commit ordering is the same (net, ci) total order
// as the negotiated router's: same seed twice must give bit-identical
// assignments, including for one net holding equal-length intervals in
// several channels.
func TestRouteAllLagrangeDeterministic(t *testing.T) {
	p := arch.Default(2, 10, 2)
	p.SegPattern = []int{5, 5}
	p.PhaseStep = 0
	a := arch.MustNew(p)
	mk := func() []fabric.NetRoute {
		return []fabric.NetRoute{
			{Global: true, Chans: []fabric.ChanAssign{
				{Ch: 0, Lo: 1, Hi: 4, Track: -1},
				{Ch: 2, Lo: 1, Hi: 4, Track: -1},
			}},
			need(0, 1, 4),
			need(2, 1, 4),
			need(0, 0, 9),
		}
	}
	key := func(routes []fabric.NetRoute) [][3]int {
		var k [][3]int
		for id := range routes {
			for ci := range routes[id].Chans {
				ca := &routes[id].Chans[ci]
				k = append(k, [3]int{ca.Track, ca.SegLo, ca.SegHi})
			}
		}
		return k
	}
	f1 := fabric.New(a)
	r1 := mk()
	fail1 := RouteAllLagrange(f1, r1, DefaultCost(), LagrangeConfig{Seed: 5})
	f2 := fabric.New(a)
	r2 := mk()
	fail2 := RouteAllLagrange(f2, r2, DefaultCost(), LagrangeConfig{Seed: 5})
	if fail1 != fail2 {
		t.Fatalf("failure counts diverged: %d vs %d", fail1, fail2)
	}
	k1, k2 := key(r1), key(r2)
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Errorf("assignment %d diverged: %v vs %v", i, k1[i], k2[i])
		}
	}
	if err := f1.CheckConsistent(r1); err != nil {
		t.Error(err)
	}
}

// On a feasible instance with spare capacity the relaxation must converge to
// a fully routed layout (the early-exit path, no fallback), and salvage plus
// fallback guarantee it is never worse than the ordered router it would fall
// back to.
func TestRouteAllLagrangeRoutesFeasible(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "lf", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 14, 20))
	pl, err := layout.NewRandom(a, nl, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	f := fabric.New(a)
	routes := make([]fabric.NetRoute, nl.NumNets())
	if gf := groute.RouteAll(f, pl, routes); len(gf) > 0 {
		t.Skip("global routing failed")
	}
	if failed := RouteAllLagrange(f, routes, DefaultCost(), LagrangeConfig{Seed: 1}); failed != 0 {
		t.Fatalf("%d needs unrouted at 20 tracks", failed)
	}
	if err := f.CheckConsistent(routes); err != nil {
		t.Fatal(err)
	}
}

// FuzzLagrangeRoute: arbitrary segmentation patterns, phases and channel
// needs must never panic the Lagrangian router, and whatever it routes must
// be a valid, consistent, covering assignment that unroutes cleanly.
func FuzzLagrangeRoute(f *testing.F) {
	f.Add(uint8(8), uint8(2), uint8(4), uint8(4), uint8(0), []byte{0, 0, 3, 0, 4, 3}, int64(1))
	f.Add(uint8(12), uint8(3), uint8(3), uint8(7), uint8(2), []byte{1, 2, 9, 0, 0, 11, 1, 5, 5}, int64(7))
	f.Add(uint8(30), uint8(1), uint8(9), uint8(1), uint8(5), []byte{0, 10, 19, 0, 10, 19, 0, 0, 29}, int64(3))
	f.Add(uint8(5), uint8(6), uint8(1), uint8(2), uint8(1), []byte{2, 4, 4}, int64(-9))
	f.Fuzz(func(t *testing.T, colsB, tracksB, seg1, seg2, phase uint8, needBytes []byte, seed int64) {
		cols := int(colsB)%40 + 2
		tracks := int(tracksB)%6 + 1
		p := arch.Default(2, cols, tracks)
		p.SegPattern = []int{int(seg1)%9 + 1, int(seg2)%9 + 1}
		p.PhaseStep = int(phase) % 7
		a, err := arch.New(p)
		if err != nil {
			t.Fatalf("clamped params rejected: %v", err)
		}
		f := fabric.New(a)

		// Each 3-byte chunk is one channel need, clamped into range.
		var routes []fabric.NetRoute
		for i := 0; i+2 < len(needBytes) && len(routes) < 48; i += 3 {
			ch := int(needBytes[i]) % a.Channels()
			lo := int(needBytes[i+1]) % cols
			hi := lo + int(needBytes[i+2])%(cols-lo)
			routes = append(routes, need(ch, lo, hi))
		}
		if len(routes) == 0 {
			return
		}

		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1 + int(seed>>3&3)))
		cfg := LagrangeConfig{MaxIters: 1 + int(seed&7), Seed: seed}
		failed := RouteAllLagrange(f, routes, DefaultCost(), cfg)
		if failed < 0 || failed > len(routes) {
			t.Fatalf("failed = %d with %d needs", failed, len(routes))
		}

		// The fabric and the route descriptors must agree exactly.
		if err := f.CheckConsistent(routes); err != nil {
			t.Fatal(err)
		}

		// Every routed assignment must cover its column interval.
		routed := 0
		for id := range routes {
			ca := &routes[id].Chans[0]
			if !ca.Routed() {
				continue
			}
			routed++
			if ca.Track < 0 || ca.Track >= a.Tracks {
				t.Fatalf("net %d on track %d of %d", id, ca.Track, a.Tracks)
			}
			segs := a.Seg[ca.Track]
			if ca.SegLo < 0 || ca.SegHi >= len(segs) || ca.SegLo > ca.SegHi {
				t.Fatalf("net %d segment range [%d,%d] of %d", id, ca.SegLo, ca.SegHi, len(segs))
			}
			if segs[ca.SegLo].Start > ca.Lo || segs[ca.SegHi].End <= ca.Hi {
				t.Fatalf("net %d segments [%d,%d) do not cover columns [%d,%d]",
					id, segs[ca.SegLo].Start, segs[ca.SegHi].End, ca.Lo, ca.Hi)
			}
			wantLo, wantHi := a.SegRange(ca.Track, ca.Lo, ca.Hi)
			if ca.SegLo != wantLo || ca.SegHi != wantHi {
				t.Fatalf("net %d segment range [%d,%d], SegRange says [%d,%d]",
					id, ca.SegLo, ca.SegHi, wantLo, wantHi)
			}
		}
		if routed+failed != len(routes) {
			t.Fatalf("routed %d + failed %d != %d needs", routed, failed, len(routes))
		}

		// Unrouting everything must restore an empty fabric.
		for id := range routes {
			if routes[id].Chans[0].Routed() {
				UnrouteChan(f, int32(id), &routes[id], 0)
			}
		}
		if f.UsedH() != 0 {
			t.Fatalf("%d segments leaked after unrouting", f.UsedH())
		}
	})
}

// TestDetailedWorkersInvariance pins the retry-path determinism of the
// ordered router: the attempts>1 loop simulates candidate orderings
// concurrently, and the chosen winner must be identical at every GOMAXPROCS
// because candidate seeds are drawn serially and ties go to the lowest
// attempt index.
func TestDetailedWorkersInvariance(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "dw", Inputs: 5, Outputs: 4, Seq: 2, Comb: 45, Seed: 87})
	if err != nil {
		t.Fatal(err)
	}
	// Scarce tracks so first-pass failures engage the retry loop.
	a := arch.MustNew(arch.Default(6, 16, 8))
	pl, err := layout.NewRandom(a, nl, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	route := func(procs int) (int, *fabric.Fabric, []fabric.NetRoute) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		f := fabric.New(a)
		routes := make([]fabric.NetRoute, nl.NumNets())
		if gf := groute.RouteAll(f, pl, routes); len(gf) > 0 {
			t.Skip("global routing failed at 8 tracks")
		}
		failed := RouteAllDetailed(f, routes, DefaultCost(), 6, rand.New(rand.NewSource(9)))
		return failed, f, routes
	}
	refFailed, refF, refRoutes := route(1)
	if err := refF.CheckConsistent(refRoutes); err != nil {
		t.Fatal(err)
	}
	refKey := routeKey(refRoutes)
	for _, procs := range []int{4, 16, 0} {
		failed, f, routes := route(procs)
		if failed != refFailed {
			t.Errorf("GOMAXPROCS=%d: %d failed, want %d", procs, failed, refFailed)
		}
		if !equalKeys(routeKey(routes), refKey) {
			t.Errorf("GOMAXPROCS=%d: layout differs from GOMAXPROCS=1", procs)
		}
		if err := f.CheckConsistent(routes); err != nil {
			t.Fatal(err)
		}
	}
}

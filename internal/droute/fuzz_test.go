package droute

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/fabric"
)

// FuzzDetailedRoute: arbitrary segmentation patterns, phases and channel
// needs must never panic the full detailed router, and whatever it routes
// must be a valid, consistent, covering assignment that unroutes cleanly.
func FuzzDetailedRoute(f *testing.F) {
	f.Add(uint8(8), uint8(2), uint8(4), uint8(4), uint8(0), []byte{0, 0, 3, 0, 4, 3}, int64(1))
	f.Add(uint8(12), uint8(3), uint8(3), uint8(7), uint8(2), []byte{1, 2, 9, 0, 0, 11, 1, 5, 5}, int64(7))
	f.Add(uint8(30), uint8(1), uint8(9), uint8(1), uint8(5), []byte{0, 10, 19, 0, 10, 19, 0, 0, 29}, int64(3))
	f.Add(uint8(5), uint8(6), uint8(1), uint8(2), uint8(1), []byte{2, 4, 4}, int64(-9))
	f.Add(uint8(35), uint8(69), uint8(2), uint8(8), uint8(3), []byte{0, 0, 30, 1, 3, 9, 0, 5, 20, 2, 0, 0}, int64(11))
	f.Fuzz(func(t *testing.T, colsB, tracksB, seg1, seg2, phase uint8, needBytes []byte, seed int64) {
		cols := int(colsB)%40 + 2
		tracks := int(tracksB)%200 + 1
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

		attempts := 1 + int(seed&3)
		failed := RouteAllDetailed(f, routes, attempts, rand.New(rand.NewSource(seed)))
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

// The full-router ordering is a total order: among equal-length intervals the
// lower net id routes first and therefore wins the last free track.
func TestRouteAllDetailedTiebreakByNetID(t *testing.T) {
	// One track [0,8): capacity for exactly one of the two identical needs.
	p := arch.Default(1, 8, 1)
	p.SegPattern = []int{8}
	p.PhaseStep = 0
	a := arch.MustNew(p)
	f := fabric.New(a)
	routes := []fabric.NetRoute{need(0, 2, 5), need(0, 2, 5)}
	failed := RouteAllDetailed(f, routes, 1, rand.New(rand.NewSource(1)))
	if failed != 1 {
		t.Fatalf("failed = %d, want 1", failed)
	}
	if !routes[0].Chans[0].Routed() || routes[1].Chans[0].Routed() {
		t.Errorf("equal-length tie must go to the lower net id: net0 routed=%v net1 routed=%v",
			routes[0].Chans[0].Routed(), routes[1].Chans[0].Routed())
	}
}

// Same property for the negotiated router's commit ordering, including the
// (net, ci) tiebreak for one net holding equal-length intervals in several
// channels: the outcome must be identical run to run.
func TestRouteAllNegotiatedDeterministic(t *testing.T) {
	p := arch.Default(2, 10, 2)
	p.SegPattern = []int{5, 5}
	p.PhaseStep = 0
	a := arch.MustNew(p)
	mk := func() []fabric.NetRoute {
		return []fabric.NetRoute{
			// Net 0: equal-length needs in channels 0 and 2 (exercises the ci
			// tiebreak), plus competitors.
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
	fail1 := RouteAllNegotiated(f1, r1, NegotiateConfig{Seed: 5})
	f2 := fabric.New(a)
	r2 := mk()
	fail2 := RouteAllNegotiated(f2, r2, NegotiateConfig{Seed: 5})
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

package droute

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/fabric"
)

// refCost is the track-selection objective written out independently of
// trackCost: one per column of wastage plus four per segment.
func refCost(a *arch.Arch, t, sl, sh, lo, hi int) float64 {
	segs := a.Seg[t]
	return float64((segs[sh].End-segs[sl].Start)-(hi-lo+1)) + 4*float64(sh-sl+1)
}

// pickTrackScan is PickTrack as an exhaustive scan: every track in ascending
// order, each tested with HRangeFree, the first strictly cheapest kept.
func pickTrackScan(f *fabric.Fabric, ch, lo, hi int) (track, segLo, segHi int, ok bool) {
	a := f.A
	best := math.Inf(1)
	track = -1
	for t := 0; t < a.Tracks; t++ {
		sl, sh := a.SegRange(t, lo, hi)
		if !f.HRangeFree(ch, t, sl, sh) {
			continue
		}
		if c := refCost(a, t, sl, sh, lo, hi); c < best {
			best, track, segLo, segHi = c, t, sl, sh
		}
	}
	return track, segLo, segHi, track >= 0
}

// bruteBest returns the exhaustive minimum cost of covering the interval
// (math.Inf(1) if no track can).
func bruteBest(f *fabric.Fabric, ch, lo, hi int) float64 {
	t, sl, sh, ok := pickTrackScan(f, ch, lo, hi)
	if !ok {
		return math.Inf(1)
	}
	return refCost(f.A, t, sl, sh, lo, hi)
}

// PickTrack reads only the tracks in the fabric's fit set; on random
// segmentations and occupancy at up to 200 tracks it must return exactly the
// (track, segLo, segHi) of the exhaustive scan, ties included: integer
// weights make equal costs common.
func TestPickTrackMatchesScan(t *testing.T) {
	compared := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := arch.Default(2, 6+rng.Intn(55), 1+rng.Intn(200))
		p.SegPattern = []int{1 + rng.Intn(6), 1 + rng.Intn(12), 1 + rng.Intn(4)}
		p.PhaseStep = rng.Intn(7)
		a := arch.MustNew(p)
		f := fabric.New(a)
		density := rng.Float64()
		for ch := 0; ch < a.Channels(); ch++ {
			for tr := 0; tr < a.Tracks; tr++ {
				for s := range a.Seg[tr] {
					if rng.Float64() < density {
						f.AllocH(ch, tr, s, s, 99)
					}
				}
			}
		}
		for trial := 0; trial < 40; trial++ {
			ch := rng.Intn(a.Channels())
			lo := rng.Intn(a.Cols)
			hi := lo + rng.Intn(min(a.Cols-lo, 1+rng.Intn(20)))
			wt, wl, wh, wok := pickTrackScan(f, ch, lo, hi)
			gt, gl, gh, gok := PickTrack(f, ch, lo, hi)
			if gok != wok || (wok && (gt != wt || gl != wl || gh != wh)) {
				t.Fatalf("seed %d channel %d [%d,%d]: PickTrack (%d, %d, %d, %v), scan (%d, %d, %d, %v)",
					seed, ch, lo, hi, gt, gl, gh, gok, wt, wl, wh, wok)
			}
			if wok {
				// Take the run, so later trials see a fuller channel.
				f.AllocH(ch, wt, wl, wh, 98)
				compared++
			}
		}
	}
	if compared < 500 {
		t.Fatalf("only %d routable intervals compared", compared)
	}
}

// Property: PickTrack always returns a track achieving the exhaustive
// minimum cost, under random segmentations and random pre-existing
// occupancy.
func TestPickTrackIsOptimalProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := arch.Default(1, 6+rng.Intn(24), 1+rng.Intn(6))
		p.SegPattern = []int{1 + rng.Intn(5), 1 + rng.Intn(8)}
		p.PhaseStep = rng.Intn(6)
		a, err := arch.New(p)
		if err != nil {
			return false
		}
		f := fabric.New(a)
		// Random occupancy.
		for i := 0; i < 10; i++ {
			tr := rng.Intn(a.Tracks)
			seg := rng.Intn(len(a.Seg[tr]))
			if f.HOwner(0, tr, seg) == fabric.Free {
				f.AllocH(0, tr, seg, seg, 99)
			}
		}
		for trial := 0; trial < 20; trial++ {
			lo := rng.Intn(a.Cols)
			hi := lo + rng.Intn(a.Cols-lo)
			want := bruteBest(f, 0, lo, hi)
			tr, sl, sh, ok := PickTrack(f, 0, lo, hi)
			if !ok {
				if !math.IsInf(want, 1) {
					t.Logf("seed %d: PickTrack failed but brute force found cost %v", seed, want)
					return false
				}
				continue
			}
			got := refCost(a, tr, sl, sh, lo, hi)
			if math.Abs(got-want) > 1e-9 {
				t.Logf("seed %d: PickTrack cost %v, optimum %v", seed, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// PickTrack walks the architecture's class order, or costs the free tracks
// when there are few. Both must return the scan's (track, segLo, segHi) on
// an interval's first, second and later requests: on random segmentations
// at up to 200 tracks (so more than one mask word), with occupancy changing
// between requests, with an empty fit set among them, and on a clone, which
// shares the order.
func TestPickTrackCacheMatchesScan(t *testing.T) {
	var walked, costed int
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := arch.Default(3, 6+rng.Intn(40), 1+rng.Intn(200))
		p.SegPattern = []int{1 + rng.Intn(6), 1 + rng.Intn(12), 1 + rng.Intn(4), 1 + rng.Intn(9)}[:2+rng.Intn(3)]
		p.PhaseStep = rng.Intn(7)
		a := arch.MustNew(p)
		f := fabric.New(a)
		// A few intervals, asked for again and again.
		type interval struct{ ch, lo, hi int }
		var ivs []interval
		for k := 0; k < 6; k++ {
			lo := rng.Intn(a.Cols)
			ivs = append(ivs, interval{rng.Intn(a.Channels()), lo, lo + rng.Intn(min(a.Cols-lo, 12))})
		}
		// The last interval's channel is filled completely for a while, the
		// others at random.
		full := ivs[len(ivs)-1].ch
		for tr := 0; tr < a.Tracks; tr++ {
			f.AllocH(full, tr, 0, len(a.Seg[tr])-1, 97)
		}
		density := rng.Float64()
		for ch := 0; ch < a.Channels(); ch++ {
			for tr := 0; tr < a.Tracks; tr++ {
				for s := range a.Seg[tr] {
					if ch != full && rng.Float64() < density {
						f.AllocH(ch, tr, s, s, 99)
					}
				}
			}
		}
		fabs := []*fabric.Fabric{f}
		for req := 0; req < 12; req++ {
			if req == 4 {
				fabs = append(fabs, f.Clone())
			}
			if req == 6 {
				for tr := 0; tr < a.Tracks; tr++ {
					f.FreeH(full, tr, 0, len(a.Seg[tr])-1, 97)
				}
			}
			for _, g := range fabs {
				// Random churn: take or release a few segments.
				for k := 0; k < 1+a.Tracks/8; k++ {
					ch, tr := rng.Intn(a.Channels()), rng.Intn(a.Tracks)
					if req < 6 && ch == full {
						continue
					}
					s := rng.Intn(len(a.Seg[tr]))
					switch g.HOwner(ch, tr, s) {
					case fabric.Free:
						g.AllocH(ch, tr, s, s, 99)
					case 99:
						g.FreeH(ch, tr, s, s, 99)
					}
				}
				for _, iv := range ivs {
					wt, wl, wh, wok := pickTrackScan(g, iv.ch, iv.lo, iv.hi)
					gt, gl, gh, gok := PickTrack(g, iv.ch, iv.lo, iv.hi)
					if gok != wok || (wok && (gt != wt || gl != wl || gh != wh)) {
						t.Fatalf("seed %d request %d (clone %v) channel %d [%d,%d]: PickTrack (%d, %d, %d, %v), scan (%d, %d, %d, %v)",
							seed, req, g != f, iv.ch, iv.lo, iv.hi, gt, gl, gh, gok, wt, wl, wh, wok)
					}
					n := 0
					for _, w := range g.HFit(iv.ch, iv.lo, iv.hi) {
						n += bits.OnesCount64(w)
					}
					switch {
					case n*n > a.Classes():
						walked++
					case n > 0:
						costed++
					}
				}
			}
		}
	}
	if walked < 2000 || costed < 200 {
		t.Fatalf("%d requests walked the class order and %d costed the free tracks", walked, costed)
	}
}

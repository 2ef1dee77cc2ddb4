package droute

import (
	"math"
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

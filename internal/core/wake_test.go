package core

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/layout"
	"repro/internal/netgen"
)

// TestWakeIsExact stops every move right after rip-up and requires wake to
// mark exactly the listed nets, other than the ripped ones, that the
// exhaustive scanRoutable finds routable. It runs on the starved arrays of
// TestSoakStarvedSkipRule and on big529 right after New, where most of the
// 513 nets are listed.
func TestWakeIsExact(t *testing.T) {
	moves, bigMoves := 1500, 400
	if testing.Short() {
		moves, bigMoves = 300, 60
	}
	for _, vt := range []int{1, 2} {
		a, nl := starvedDesign(t, vt)
		o, err := New(a, nl, Config{Seed: 29})
		if err != nil {
			t.Fatal(err)
		}
		wakeIsExact(t, o, moves)
	}

	prof, ok := netgen.Profile("big529")
	if !ok {
		t.Fatal("no big529 profile")
	}
	big, err := netgen.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	// exper.ArchFor's array for big529: 12 rows, 38 tracks.
	o, err := New(arch.MustNew(arch.Default(12, (big.NumCells()*18/10+11)/12, 38)), big, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wakeIsExact(t, o, bigMoves)
}

func wakeIsExact(t *testing.T, o *Optimizer, moves int) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	listed, woken := 0, 0
	for i := 0; i < moves; i++ {
		// Propose's two move kinds, stopped after rip-up.
		if rng.Intn(5) == 0 {
			cell := int32(rng.Intn(o.NL.NumCells()))
			o.ripPinmap(cell, uint8((int(o.P.Pm[cell])+1+rng.Intn(arch.NumPinmaps-1))%arch.NumPinmaps))
		} else {
			la := layout.Loc{Row: rng.Intn(o.A.Rows), Col: rng.Intn(o.A.Cols)}
			o.ripSwap(la, o.pickPartner(rng, la))
		}
		o.wake()
		for _, id := range o.unrouted {
			if o.netStamp[id] == o.epoch {
				continue // ripped: the cascade tests it anyway
			}
			listed++
			w, r := o.woke[id] == o.epoch, o.scanRoutable(id)
			if w != r {
				t.Fatalf("%s move %d: net %d woken %v, routable by scan %v", o.NL.Name, i, id, w, r)
			}
			if w {
				woken++
			}
		}
		o.cascade()
		o.retime()
		if i%2 == 0 {
			o.Accept()
		} else {
			o.Reject()
		}
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	if woken == 0 || woken == listed {
		t.Errorf("%s: %d of %d listed nets woken; the run does not test the rule", o.NL.Name, woken, listed)
	}
	t.Logf("%s, VTracks %d: %d of %d listed nets woken over %d moves", o.NL.Name, o.A.VTracks, woken, listed, moves)
}

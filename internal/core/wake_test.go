package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/netgen"
	"repro/internal/netlist"
)

// TestWakeIsExact follows every move through wake and the cascade. Right
// after rip-up, wake must mark exactly the listed nets, other than the ripped
// ones, that the exhaustive scanRoutable finds routable, and record exactly
// their needs that fit by scan. At each woken net's turn, stretchFit must
// give mayRoute's fabric-wide answer, and after each allocation every
// stretch must still be a maximal free run, with every freed segment that is
// still free inside one. It runs on the starved arrays of
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
	a, big := scaledBig529(t, 1)
	o, err := New(a, big, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wakeIsExact(t, o, bigMoves)
}

func wakeIsExact(t *testing.T, o *Optimizer, moves int) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	move, listed, woken, turns, allocs := 0, 0, 0, 0, 0
	o.stepHook = func(id int32, turn bool) {
		if turn {
			turns++
			if s, m := o.stretchFit(id), o.mayRoute(id); s != m {
				t.Fatalf("%s move %d: net %d at its turn: stretchFit %v, mayRoute %v", o.NL.Name, move, id, s, m)
			}
			return
		}
		allocs++
		if err := stretchesExact(o); err != nil {
			t.Fatalf("%s move %d, after an allocation of net %d: %v", o.NL.Name, move, id, err)
		}
	}
	defer func() { o.stepHook = nil }()
	for ; move < moves; move++ {
		// Propose's two move kinds, stopped after rip-up.
		if rng.Intn(5) == 0 {
			cell := int32(rng.Intn(o.NL.NumCells()))
			o.ripPinmap(cell, uint8((int(o.P.Pm[cell])+1+rng.Intn(arch.NumPinmaps-1))%arch.NumPinmaps))
		} else {
			la := layout.Loc{Row: rng.Intn(o.A.Rows), Col: rng.Intn(o.A.Cols)}
			o.ripSwap(la, o.pickPartner(rng, la))
		}
		o.wake()
		if err := stretchesExact(o); err != nil {
			t.Fatalf("%s move %d, after wake: %v", o.NL.Name, move, err)
		}
		for _, id := range o.unrouted {
			if o.netStamp[id] == o.epoch {
				continue // ripped: the cascade tests it anyway
			}
			listed++
			w, r := o.woke[id] == o.epoch, o.scanRoutable(id)
			if w != r {
				t.Fatalf("%s move %d: net %d woken %v, routable by scan %v", o.NL.Name, move, id, w, r)
			}
			if got, want := recordedNeeds(o, id), fittingNeeds(o, id); !slices.Equal(got, want) {
				t.Fatalf("%s move %d: net %d has recorded needs %v, its needs that fit by scan are %v", o.NL.Name, move, id, got, want)
			}
			if w {
				woken++
			}
		}
		o.cascade()
		o.retime()
		if move%2 == 0 {
			o.Accept()
		} else {
			o.Reject()
		}
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	if woken == 0 || woken == listed || turns == 0 || allocs == 0 {
		t.Errorf("%s: %d of %d listed nets woken, %d turns and %d allocations checked; the run does not test the rule",
			o.NL.Name, woken, listed, turns, allocs)
	}
	t.Logf("%s, VTracks %d: %d of %d listed nets woken over %d moves; %d turns and %d allocations checked",
		o.NL.Name, o.A.VTracks, woken, listed, moves, turns, allocs)
}

// recordedNeeds returns the needs wake recorded for net id, as (list, lo,
// hi) in list order; none if wake did not wake it.
func recordedNeeds(o *Optimizer, id int32) [][3]int32 {
	var ns [][3]int32
	if o.woke[id] != o.epoch {
		return ns
	}
	for k := o.needHead[id]; k >= 0; k = o.needs[k].next {
		n := o.needs[k]
		ns = append(ns, [3]int32{n.ch, n.lo, n.hi})
	}
	slices.SortFunc(ns, func(x, y [3]int32) int { return int(x[0] - y[0]) })
	return ns
}

// fittingNeeds returns the needs of the listed net id that fit now by an
// exhaustive scan of the ownership tables, as recordedNeeds lists them.
func fittingNeeds(o *Optimizer, id int32) [][3]int32 {
	var ns [][3]int32
	a, r := o.A, &o.Rts[id]
	if !r.Global {
		box := o.P.NetBox(id)
		vLo, vHi := a.VSegRange(box.ChLo, box.ChHi)
		for p := 0; p < a.Cols*a.VTracks; p++ {
			if o.F.VRangeFree(p/a.VTracks, p%a.VTracks, vLo, vHi) {
				return append(ns, [3]int32{-1, int32(vLo), int32(vHi)})
			}
		}
		return ns
	}
	for _, ca := range r.Chans {
		if ca.Routed() {
			continue
		}
		for t := 0; t < a.Tracks; t++ {
			if sl, sh := a.SegRange(t, ca.Lo, ca.Hi); o.F.HRangeFree(ca.Ch, t, sl, sh) {
				ns = append(ns, [3]int32{int32(ca.Ch), int32(ca.Lo), int32(ca.Hi)})
				break
			}
		}
	}
	return ns
}

// stretchesExact checks the move's stretches against the ownership tables:
// each is a maximal free run of whole segments, and in every list with
// entries, each segment the rip-up freed that is still free lies inside one.
func stretchesExact(o *Optimizer) error {
	a := o.A
	for ch, ss := range o.hstr {
		for _, s := range ss {
			t := int(s.at)
			segs := a.Seg[t]
			lo, hi := a.SegIndexAt(t, int(s.lo)), a.SegIndexAt(t, int(s.hi))
			if s.lo > s.hi || segs[lo].Start != int(s.lo) || segs[hi].End-1 != int(s.hi) {
				return fmt.Errorf("channel %d stretch %+v is not a run of whole segments", ch, s)
			}
			if !o.F.HRangeFree(ch, t, lo, hi) || lo > 0 && o.F.HOwner(ch, t, lo-1) == fabric.Free ||
				hi < len(segs)-1 && o.F.HOwner(ch, t, hi+1) == fabric.Free {
				return fmt.Errorf("channel %d stretch %+v is not a maximal free run", ch, s)
			}
		}
	}
	for _, s := range o.vstr {
		col, vt, lo, hi := int(s.at)/a.VTracks, int(s.at)%a.VTracks, int(s.lo), int(s.hi)
		if lo > hi || !o.F.VRangeFree(col, vt, lo, hi) || lo > 0 && o.F.VOwner(col, vt, lo-1) == fabric.Free ||
			hi < a.NVSegs-1 && o.F.VOwner(col, vt, hi+1) == fabric.Free {
			return fmt.Errorf("vertical stretch %+v is not a maximal free run", s)
		}
	}
	inside := func(ss []stretch, at, lo, hi int32) bool {
		for _, s := range ss {
			if s.at == at && s.lo <= lo && hi <= s.hi {
				return true
			}
		}
		return false
	}
	for i := range o.journal {
		e := &o.journal[i]
		if !e.ripped {
			continue
		}
		if r := &e.old; r.HasTrunk && len(o.vwatch) > 0 {
			at := int32(r.TrunkCol*a.VTracks + r.TrunkTrack)
			for v := r.VLo; v <= r.VHi; v++ {
				if o.F.VOwner(r.TrunkCol, r.TrunkTrack, v) == fabric.Free && !inside(o.vstr, at, int32(v), int32(v)) {
					return fmt.Errorf("freed vertical segment %d of (column %d, vtrack %d) is free but in no stretch",
						v, r.TrunkCol, r.TrunkTrack)
				}
			}
		}
		for _, ca := range e.old.Chans {
			if !ca.Routed() || len(o.hwatch[ca.Ch]) == 0 {
				continue
			}
			segs := a.Seg[ca.Track]
			for sg := ca.SegLo; sg <= ca.SegHi; sg++ {
				if o.F.HOwner(ca.Ch, ca.Track, sg) == fabric.Free &&
					!inside(o.hstr[ca.Ch], int32(ca.Track), int32(segs[sg].Start), int32(segs[sg].End-1)) {
					return fmt.Errorf("freed segment %d of channel %d track %d is free but in no stretch", sg, ca.Ch, ca.Track)
				}
			}
		}
	}
	return nil
}

// TestFitTestsFlat counts the fabric-wide fit tests the cascade makes per
// move over 3,000 moves right after New on big529 and on its profile scaled
// 8 times (4 under -short), the moves of BenchmarkIncrementalMoveStarved.
// Only ripped nets get one, so the count must not grow with the design: the
// larger design may make at most 1.5 times the tests per move of big529.
func TestFitTestsFlat(t *testing.T) {
	const moves = 3000
	k := 8
	if testing.Short() {
		k = 4
	}
	perMove := func(k int) float64 {
		a, nl := scaledBig529(t, k)
		o, err := New(a, nl, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < moves; i++ {
			o.Propose(rng, nil)
			if i%2 == 0 {
				o.Accept()
			} else {
				o.Reject()
			}
		}
		return float64(o.fitTests) / moves
	}
	x1, xk := perMove(1), perMove(k)
	if xk > 1.5*x1 {
		t.Errorf("fit tests per move: %.1f at x1, %.1f at x%d, more than 1.5 times as many", x1, xk, k)
	}
	t.Logf("fit tests per move: %.2f at x1, %.2f at x%d", x1, xk, k)
}

// scaledBig529 is big529's profile scaled k times, on the array of
// BenchmarkIncrementalMoveStarved: exper.ArchFor's for k = 1 (12 rows, 38
// tracks), else 38 tracks and rows growing with the square root of the cell
// count.
func scaledBig529(t *testing.T, k int) (*arch.Arch, *netlist.Netlist) {
	t.Helper()
	p, ok := netgen.Profile("big529")
	if !ok {
		t.Fatal("no big529 profile")
	}
	rows := 12
	if k > 1 {
		p.Name = fmt.Sprintf("big529x%d", k)
		p.Inputs, p.Outputs, p.Seq, p.Comb = k*p.Inputs, k*p.Outputs, k*p.Seq, k*p.Comb
	}
	nl, err := netgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cells := nl.NumCells()
	if k > 1 {
		rows = int(math.Round(math.Sqrt(1.8*float64(cells)) / 2.5))
	}
	return arch.MustNew(arch.Default(rows, (cells*18/10+rows-1)/rows, 38)), nl
}

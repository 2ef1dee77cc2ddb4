package fabric

import (
	"slices"
	"testing"

	"repro/internal/arch"
)

// fillChannel allocates every segment of every track in channel ch to net.
func fillChannel(f *Fabric, ch int, net int32) {
	for t := 0; t < f.A.Tracks; t++ {
		f.AllocH(ch, t, 0, len(f.A.Seg[t])-1, net)
	}
}

// fillVertical allocates every vertical segment of every column to net.
func fillVertical(f *Fabric, net int32) {
	for col := 0; col < f.A.Cols; col++ {
		for vt := 0; vt < f.A.VTracks; vt++ {
			f.AllocV(col, vt, 0, f.A.NVSegs-1, net)
		}
	}
}

// members lists the elements of b in ascending order, walking it with Next,
// and checks that a walk down with Prev visits the same elements.
func members(t *testing.T, b Bits) []int {
	t.Helper()
	var up, down []int
	for i := b.Next(0); i >= 0; i = b.Next(i + 1) {
		up = append(up, i)
	}
	for i := b.Prev(len(b)*64 - 1); i >= 0; i = b.Prev(i - 1) {
		down = append(down, i)
	}
	slices.Reverse(down)
	if !slices.Equal(up, down) {
		t.Fatalf("Next walks %v, Prev walks %v", up, down)
	}
	if b.Empty() != (len(up) == 0) {
		t.Fatalf("Empty() = %v with members %v", b.Empty(), up)
	}
	return up
}

// bruteH lists the tracks of channel ch whose segments covering [lo, hi] are
// all free, by scanning the ownership table.
func bruteH(f *Fabric, ch, lo, hi int) []int {
	var fit []int
	for t := 0; t < f.A.Tracks; t++ {
		sl, sh := f.A.SegRange(t, lo, hi)
		if f.HRangeFree(ch, t, sl, sh) {
			fit = append(fit, t)
		}
	}
	return fit
}

// bruteV lists the packed (column, vtrack) pairs with [vLo, vHi] all free.
func bruteV(f *Fabric, vLo, vHi int) []int {
	var fit []int
	for col := 0; col < f.A.Cols; col++ {
		for vt := 0; vt < f.A.VTracks; vt++ {
			if f.VRangeFree(col, vt, vLo, vHi) {
				fit = append(fit, col*f.A.VTracks+vt)
			}
		}
	}
	return fit
}

func TestBitsNextPrev(t *testing.T) {
	b := Bits{1<<0 | 1<<63, 0, 1 << 5}
	if got := members(t, b); !slices.Equal(got, []int{0, 63, 133}) {
		t.Fatalf("members = %v", got)
	}
	for _, c := range []struct{ i, next, prev int }{
		{-1, 0, -1}, {0, 0, 0}, {1, 63, 0}, {63, 63, 63}, {64, 133, 63},
		{133, 133, 133}, {134, -1, 133}, {500, -1, 133},
	} {
		if got := b.Next(c.i); got != c.next {
			t.Errorf("Next(%d) = %d, want %d", c.i, got, c.next)
		}
		if got := b.Prev(c.i); got != c.prev {
			t.Errorf("Prev(%d) = %d, want %d", c.i, got, c.prev)
		}
	}
	if !(Bits{0, 0}).Empty() || (Bits{}).Next(0) != -1 || (Bits{}).Prev(3) != -1 {
		t.Error("empty sets")
	}
}

func TestHFit(t *testing.T) {
	f := New(testArch())
	fillChannel(f, 0, 1)
	fillChannel(f, 1, 1)
	if !f.HFit(0, 2, 5).Empty() {
		t.Fatal("a full channel fits")
	}
	sl, sh := f.A.SegRange(2, 2, 5)
	f.FreeH(0, 2, sl, sh, 1)
	if got := members(t, f.HFit(0, 2, 5)); !slices.Equal(got, []int{2}) {
		t.Fatalf("freed track 2: HFit = %v", got)
	}
	if !f.HFit(1, 2, 5).Empty() {
		t.Error("a free in channel 0 made channel 1 fit")
	}
	if !f.HFit(0, 0, f.A.Cols-1).Empty() != (sl == 0 && sh == len(f.A.Seg[2])-1) {
		t.Error("a partly freed track fits the whole channel")
	}
	f.AllocH(0, 2, sh, sh, 7)
	if !f.HFit(0, 2, 5).Empty() {
		t.Error("the freed run was partly taken again, yet it fits")
	}
}

func TestVFit(t *testing.T) {
	f := New(testArch())
	fillVertical(f, 1)
	if !f.VFit(0, 1).Empty() {
		t.Fatal("a full vertical fabric fits")
	}
	f.FreeV(3, 1, 0, 1, 1)
	if got := members(t, f.VFit(0, 1)); !slices.Equal(got, []int{3*f.A.VTracks + 1}) {
		t.Fatalf("freed (3, 1): VFit = %v", got)
	}
	f.AllocV(3, 1, 0, 0, 7)
	if !f.VFit(0, 1).Empty() {
		t.Error("the freed run was partly taken again, yet it fits")
	}
	if f.VFit(1, 1).Empty() {
		t.Error("vertical segment 1 of (3, 1) is still free, yet nothing fits")
	}
}

func TestFitAfterClone(t *testing.T) {
	f := New(testArch())
	fillChannel(f, 0, 1)
	sl, sh := f.A.SegRange(3, 4, 6)
	f.FreeH(0, 3, sl, sh, 1)
	c := f.Clone()
	if c.HFit(0, 4, 6).Empty() {
		t.Fatal("the clone lost the free set")
	}
	orig := f.HFit(0, 4, 6)
	c.AllocH(0, 3, sl, sh, 7)
	if !c.HFit(0, 4, 6).Empty() {
		t.Error("clone: the freed run was taken again, yet it fits")
	}
	if got := members(t, orig); !slices.Equal(got, []int{3}) {
		t.Errorf("a query on the clone overwrote the original's answer: %v", got)
	}
	if f.HFit(0, 4, 6).Empty() {
		t.Error("allocating in the clone changed the original")
	}
}

func TestFitAfterReset(t *testing.T) {
	f := New(testArch())
	fillChannel(f, 0, 1)
	fillVertical(f, 1)
	f.Reset()
	if got := members(t, f.HFit(0, 0, f.A.Cols-1)); len(got) != f.A.Tracks {
		t.Fatalf("after Reset %d of %d tracks fit the whole channel", len(got), f.A.Tracks)
	}
	if got := members(t, f.VFit(0, f.A.NVSegs-1)); len(got) != f.A.Cols*f.A.VTracks {
		t.Fatalf("after Reset %d of %d vertical tracks are free", len(got), f.A.Cols*f.A.VTracks)
	}
	if err := f.CheckFreeSets(); err != nil {
		t.Fatal(err)
	}
}

// A free bit that disagrees with the ownership table, in either direction
// and in either set, must fail CheckFreeSets, while CheckConsistent, which
// layio runs on every reload, does not look at the sets.
func TestCheckFreeSetsCatchesDrift(t *testing.T) {
	a := arch.MustNew(arch.Default(3, 30, 70)) // two words per column, 150 vertical pairs
	for i, flip := range []func(f *Fabric){
		func(f *Fabric) { f.hfree[(1*a.Cols+4)*f.hw+1] ^= 1 << 2 },  // free track 66 of channel 1 reads owned
		func(f *Fabric) { f.hfree[(2*a.Cols+9)*f.hw] ^= 1 << 0 },    // owned track 0 of channel 2 reads free
		func(f *Fabric) { f.vfree[0*f.vw+2] ^= 1 << 3 },             // free pair 131 of vertical segment 0
		func(f *Fabric) { f.vfree[1*f.vw] ^= 1 << 5 },               // owned pair (1, 0) reads free
		func(f *Fabric) { f.hfree[(0*a.Cols+0)*f.hw+1] |= 1 << 10 }, // track 74 does not exist
	} {
		f := New(a)
		routes := []NetRoute{
			{Global: true, Chans: []ChanAssign{{Ch: 2, Lo: 0, Hi: a.Cols - 1, Track: 0, SegLo: 0, SegHi: len(a.Seg[0]) - 1}}},
			{Global: true, HasTrunk: true, TrunkCol: 1, TrunkTrack: 0, VLo: 0, VHi: a.NVSegs - 1},
		}
		f.InstallRoute(0, &routes[0])
		f.InstallRoute(1, &routes[1])
		if err := f.CheckFreeSets(); err != nil {
			t.Fatalf("consistent sets rejected: %v", err)
		}
		flip(f)
		if err := f.CheckFreeSets(); err == nil {
			t.Errorf("flip %d: CheckFreeSets missed it", i)
		}
		if err := f.CheckConsistent(routes); err != nil {
			t.Errorf("flip %d: CheckConsistent looked at the free sets: %v", i, err)
		}
	}
}

// FuzzFreeSets decodes the input into a sequence of fabric operations on an
// array of 1-200 tracks and 2-246 (column, vtrack) pairs, and after every
// step requires that the free sets match the ownership tables and that every
// fit query equals a brute-force HRangeFree/VRangeFree scan. A Clone step
// forks a second fabric; later steps pick either one, so the two must evolve
// independently, query scratch included.
func FuzzFreeSets(f *testing.F) {
	f.Add(uint8(5), uint8(10), uint8(2), []byte{0, 1, 2, 3, 4, 2, 0, 3, 1, 0, 1, 1, 2, 3, 4})
	f.Add(uint8(69), uint8(37), uint8(4), []byte{4, 9, 0, 9, 2, 7, 1, 1, 1, 1, 0, 2, 66, 5, 3, 12, 1, 2, 66, 5, 5, 9, 0, 0, 0})
	f.Add(uint8(199), uint8(20), uint8(5), []byte{0, 0, 130, 0, 19, 2, 7, 0, 3, 1, 15, 2, 9, 1, 0, 7, 0, 0, 0, 0, 9, 1, 140, 0, 19})
	f.Add(uint8(63), uint8(30), uint8(1), []byte{2, 0, 17, 0, 1, 6, 0, 0, 0, 0, 2, 3, 17, 0, 2, 3, 0, 17, 0, 0})
	// Multiword sets: a partly allocated track past 64, and a vertical pair
	// past 64, each under a query spanning more than one entry.
	f.Add(uint8(112), uint8(30), uint8(5), []byte("00B00"))
	f.Add(uint8(69), uint8(30), uint8(34), []byte("$7001"))
	f.Fuzz(func(t *testing.T, tracksB, colsB, vtB uint8, ops []byte) {
		p := arch.Default(3, int(colsB)%40+2, int(tracksB)%200+1)
		p.VTracks = int(vtB)%6 + 1
		p.VSpan = 1 + int(vtB/6)%2
		a := arch.MustNew(p)

		// Raw Alloc*/Free* steps own resources as nets 100-103; routes are
		// nets 0-7, so a raw free never pulls a segment out of an installed
		// route.
		type state struct {
			f      *Fabric
			routes []NetRoute
			on     []bool
		}
		sts := []*state{{f: New(a), routes: make([]NetRoute, 8), on: make([]bool, 8)}}
		for step := 0; step+4 < len(ops) && step < 5*32; step += 5 {
			op, x, y, z, w := ops[step], int(ops[step+1]), int(ops[step+2]), int(ops[step+3]), int(ops[step+4])
			s := sts[int(op>>3)%len(sts)]
			fab := s.f
			switch op & 7 {
			case 0: // AllocH
				ch, tr := x%a.Channels(), y%a.Tracks
				lo := z % a.Cols
				sl, sh := a.SegRange(tr, lo, lo+w%(a.Cols-lo))
				if fab.HRangeFree(ch, tr, sl, sh) {
					fab.AllocH(ch, tr, sl, sh, int32(100+x%4))
				}
			case 1: // FreeH: a run of one raw owner from segment z
				ch, tr := x%a.Channels(), y%a.Tracks
				sl := z % len(a.Seg[tr])
				if owner := fab.HOwner(ch, tr, sl); owner >= 100 {
					sh := sl
					for sh+1 < len(a.Seg[tr]) && sh-sl < w%4 && fab.HOwner(ch, tr, sh+1) == owner {
						sh++
					}
					fab.FreeH(ch, tr, sl, sh, owner)
				}
			case 2: // AllocV
				col, vt := x%a.Cols, y%a.VTracks
				lo := z % a.NVSegs
				hi := lo + w%(a.NVSegs-lo)
				if fab.VRangeFree(col, vt, lo, hi) {
					fab.AllocV(col, vt, lo, hi, int32(100+x%4))
				}
			case 3: // FreeV
				col, vt := x%a.Cols, y%a.VTracks
				lo := z % a.NVSegs
				if owner := fab.VOwner(col, vt, lo); owner >= 100 {
					hi := lo
					for hi+1 < a.NVSegs && fab.VOwner(col, vt, hi+1) == owner {
						hi++
					}
					fab.FreeV(col, vt, lo, hi, owner)
				}
			case 4: // InstallRoute: a trunk and one channel, whatever is free
				if id := x % 8; !s.on[id] {
					r := NetRoute{Global: true}
					col, vt, lo := y%a.Cols, z%a.VTracks, w%a.NVSegs
					if fab.VRangeFree(col, vt, lo, lo) {
						r.HasTrunk, r.TrunkCol, r.TrunkTrack, r.VLo, r.VHi = true, col, vt, lo, lo
					}
					ch, tr := w%a.Channels(), (y+z)%a.Tracks
					clo := (x + w) % a.Cols
					chi := clo + y%(a.Cols-clo)
					sl, sh := a.SegRange(tr, clo, chi)
					if fab.HRangeFree(ch, tr, sl, sh) {
						r.Chans = append(r.Chans, ChanAssign{Ch: ch, Lo: clo, Hi: chi, Track: tr, SegLo: sl, SegHi: sh})
					}
					s.routes[id] = r
					fab.InstallRoute(int32(id), &s.routes[id])
					s.on[id] = true
				}
			case 5: // RemoveRoute
				if id := x % 8; s.on[id] {
					fab.RemoveRoute(int32(id), &s.routes[id])
					s.routes[id].Reset()
					s.on[id] = false
				}
			case 6: // Reset
				fab.Reset()
				for id := range s.routes {
					s.routes[id].Reset()
					s.on[id] = false
				}
			case 7: // Clone the first fabric into the second slot
				c := &state{f: sts[0].f.Clone(), routes: make([]NetRoute, 8), on: slices.Clone(sts[0].on)}
				for id := range c.routes {
					c.routes[id] = sts[0].routes[id].Clone()
				}
				sts = append(sts[:1], c)
			}

			// Queries named by this step's bytes, on every fabric; each
			// answer must still hold after the other fabrics' queries.
			lo := (x + z) % a.Cols
			hi := lo + (y+w)%(a.Cols-lo)
			vLo := z % a.NVSegs
			vHi := vLo + x%(a.NVSegs-vLo)
			var held []Bits
			var want [][]int
			for _, st := range sts {
				if err := st.f.CheckFreeSets(); err != nil {
					t.Fatalf("step %d (op %d): %v", step/5, op&7, err)
				}
				for ch := 0; ch < a.Channels(); ch++ {
					bw := bruteH(st.f, ch, lo, hi)
					if got := members(t, st.f.HFit(ch, lo, hi)); !slices.Equal(got, bw) {
						t.Fatalf("step %d: HFit(%d, %d, %d) = %v, brute force %v", step/5, ch, lo, hi, got, bw)
					}
				}
				bw := bruteV(st.f, vLo, vHi)
				held = append(held, st.f.VFit(vLo, vHi))
				want = append(want, bw)
			}
			for i := range held {
				if got := members(t, held[i]); !slices.Equal(got, want[i]) {
					t.Fatalf("step %d: fabric %d VFit(%d, %d) = %v, brute force %v", step/5, i, vLo, vHi, got, want[i])
				}
			}
		}
	})
}

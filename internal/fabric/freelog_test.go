package fabric

import (
	"math/rand"
	"testing"
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

// freeRun frees and returns the segments of track t in channel ch that cover
// columns [lo, hi].
func freeRun(f *Fabric, ch, t, lo, hi int, net int32) (sl, sh int) {
	sl, sh = f.A.SegRange(t, lo, hi)
	f.FreeH(ch, t, sl, sh, net)
	return sl, sh
}

func TestHMayFit(t *testing.T) {
	f := New(testArch())
	fillChannel(f, 0, 1)
	fillChannel(f, 1, 1)
	stamp := f.FreeClock()
	if f.HMayFit(0, 2, 5, stamp) {
		t.Fatal("nothing freed since the stamp, yet HMayFit is true")
	}

	// Freed and still free.
	sl, sh := freeRun(f, 0, 2, 2, 5, 1)
	if !f.HMayFit(0, 2, 5, stamp) {
		t.Fatal("a freed run that is still free: HMayFit is false")
	}
	if f.HMayFit(1, 2, 5, stamp) {
		t.Error("a free in channel 0 made channel 1 fit")
	}
	if f.HMayFit(0, 2, 5, f.FreeClock()) {
		t.Error("a stamp taken after the free still sees it")
	}

	// Freed, then allocated again.
	f.AllocH(0, 2, sl, sh, 7)
	if f.HMayFit(0, 2, 5, stamp) {
		t.Error("the freed run was taken again, yet HMayFit is true")
	}
}

func TestVMayFit(t *testing.T) {
	f := New(testArch())
	fillVertical(f, 1)
	stamp := f.FreeClock()
	if f.VMayFit(0, 1, stamp) {
		t.Fatal("nothing freed since the stamp, yet VMayFit is true")
	}
	f.FreeV(3, 1, 0, 1, 1)
	if !f.VMayFit(0, 1, stamp) {
		t.Fatal("a freed vertical run that is still free: VMayFit is false")
	}
	f.AllocV(3, 1, 0, 0, 7)
	if f.VMayFit(0, 1, stamp) {
		t.Error("the freed run was partly taken again, yet VMayFit is true")
	}
	if !f.VMayFit(1, 1, stamp) {
		t.Error("vertical segment 1 is still free, yet VMayFit is false")
	}
}

// More frees since the stamp than the log holds: the log no longer reaches
// back, so the query must answer true even though nothing fits.
func TestMayFitLogOverflow(t *testing.T) {
	for _, n := range []int{freeLogLen - 1, freeLogLen + 1} {
		f := New(testArch())
		fillChannel(f, 0, 1)
		fillVertical(f, 1)
		stamp := f.FreeClock()
		for i := 0; i < n; i++ {
			// Alternate tracks so consecutive frees are distinct records.
			sl, sh := freeRun(f, 0, i%2, 0, 0, 1)
			f.AllocH(0, i%2, sl, sh, 1)
			f.FreeV(i%2, 0, 0, 0, 1)
			f.AllocV(i%2, 0, 0, 0, 1)
		}
		want := n > freeLogLen
		if got := f.HMayFit(0, 0, 0, stamp); got != want {
			t.Errorf("%d frees: HMayFit = %v, want %v", n, got, want)
		}
		if got := f.VMayFit(0, 0, stamp); got != want {
			t.Errorf("%d frees: VMayFit = %v, want %v", n, got, want)
		}
	}
}

func TestMayFitAfterClone(t *testing.T) {
	f := New(testArch())
	fillChannel(f, 0, 1)
	stamp := f.FreeClock()
	sl, sh := freeRun(f, 0, 3, 4, 6, 1)
	c := f.Clone()
	if !c.HMayFit(0, 4, 6, stamp) {
		t.Fatal("clone lost the free log")
	}
	c.AllocH(0, 3, sl, sh, 7)
	if c.HMayFit(0, 4, 6, stamp) {
		t.Error("clone: freed run taken again, yet HMayFit is true")
	}
	if !f.HMayFit(0, 4, 6, stamp) {
		t.Error("allocating in the clone changed the original")
	}
	freeRun(c, 0, 4, 10, 12, 1)
	if f.HMayFit(0, 10, 12, f.FreeClock()) {
		t.Error("a free in the clone reached the original's log")
	}
}

func TestMayFitAfterReset(t *testing.T) {
	f := New(testArch())
	fillChannel(f, 0, 1)
	fillVertical(f, 1)
	stamp := f.FreeClock()
	f.Reset()
	if !f.HMayFit(0, 0, 3, stamp) || !f.VMayFit(0, 1, stamp) {
		t.Fatal("Reset freed everything, yet a stamp from before it does not fit")
	}
	fillChannel(f, 0, 2)
	fillVertical(f, 2)
	after := f.FreeClock()
	if f.HMayFit(0, 0, 3, after) || f.VMayFit(0, 1, after) {
		t.Error("a stamp from after Reset sees the Reset's frees")
	}
}

// Property: whatever the history of allocations and frees, a run that fits
// now but did not fit at the stamp is never reported as impossible.
func TestMayFitSound(t *testing.T) {
	a := testArch()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := New(a)
		fits := func(ch, lo, hi int) bool {
			for t := 0; t < a.Tracks; t++ {
				sl, sh := a.SegRange(t, lo, hi)
				if f.HRangeFree(ch, t, sl, sh) {
					return true
				}
			}
			return false
		}
		type query struct {
			ch, lo, hi int
			stamp      uint64
		}
		var stuck []query
		type held struct{ ch, t, sl, sh int }
		var live []held
		for step := 0; step < 400; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				h := live[k]
				f.FreeH(h.ch, h.t, h.sl, h.sh, 1)
				live = append(live[:k], live[k+1:]...)
			} else {
				ch, tr := rng.Intn(a.Channels()), rng.Intn(a.Tracks)
				lo := rng.Intn(a.Cols)
				hi := min(a.Cols-1, lo+rng.Intn(8))
				sl, sh := a.SegRange(tr, lo, hi)
				if f.HRangeFree(ch, tr, sl, sh) {
					f.AllocH(ch, tr, sl, sh, 1)
					live = append(live, held{ch, tr, sl, sh})
				}
			}
			ch, lo := rng.Intn(a.Channels()), rng.Intn(a.Cols)
			hi := min(a.Cols-1, lo+rng.Intn(12))
			if !fits(ch, lo, hi) {
				stuck = append(stuck, query{ch, lo, hi, f.FreeClock()})
			}
			for _, q := range stuck {
				if fits(q.ch, q.lo, q.hi) && !f.HMayFit(q.ch, q.lo, q.hi, q.stamp) {
					t.Fatalf("seed %d step %d: channel %d [%d,%d] fits but HMayFit(stamp %d) is false",
						seed, step, q.ch, q.lo, q.hi, q.stamp)
				}
			}
		}
	}
}

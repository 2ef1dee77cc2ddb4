package arch

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func testParams(rows, cols, tracks int) Params {
	return Default(rows, cols, tracks)
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero rows", func(p *Params) { p.Rows = 0 }},
		{"one col", func(p *Params) { p.Cols = 1 }},
		{"zero tracks", func(p *Params) { p.Tracks = 0 }},
		{"too many tracks", func(p *Params) { p.Tracks = 1 << 15 }},
		{"empty pattern", func(p *Params) { p.SegPattern = nil }},
		{"bad segment length", func(p *Params) { p.SegPattern = []int{4, 0} }},
		{"zero vtracks", func(p *Params) { p.VTracks = 0 }},
		{"zero vspan", func(p *Params) { p.VSpan = 0 }},
	}
	for _, tc := range cases {
		p := testParams(4, 20, 8)
		tc.mut(&p)
		if _, err := New(p); err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
	if _, err := New(testParams(4, 20, 8)); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

// Track segmentation must tile [0, Cols) exactly: contiguous, non-overlapping,
// non-empty segments.
func TestSegmentationTiles(t *testing.T) {
	a := MustNew(testParams(6, 37, 11))
	for tr, segs := range a.Seg {
		if len(segs) == 0 {
			t.Fatalf("track %d has no segments", tr)
		}
		if segs[0].Start != 0 {
			t.Errorf("track %d starts at %d, want 0", tr, segs[0].Start)
		}
		if segs[len(segs)-1].End != a.Cols {
			t.Errorf("track %d ends at %d, want %d", tr, segs[len(segs)-1].End, a.Cols)
		}
		for i := 1; i < len(segs); i++ {
			if segs[i].Start != segs[i-1].End {
				t.Errorf("track %d: gap/overlap between segment %d and %d", tr, i-1, i)
			}
		}
		for i, s := range segs {
			if s.Len() < 1 {
				t.Errorf("track %d segment %d empty", tr, i)
			}
		}
	}
}

// Property: for any geometry, SegIndexAt agrees with a direct scan, and
// SegRange covers the queried interval.
func TestSegLookupProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cols := 5 + r.Intn(60)
		pat := make([]int, 1+r.Intn(5))
		for i := range pat {
			pat[i] = 1 + r.Intn(10)
		}
		p := testParams(3, cols, 1+r.Intn(6))
		p.SegPattern = pat
		p.PhaseStep = r.Intn(7)
		a, err := New(p)
		if err != nil {
			return false
		}
		for tr := 0; tr < a.Tracks; tr++ {
			for col := 0; col < cols; col++ {
				i := a.SegIndexAt(tr, col)
				if !a.Seg[tr][i].Contains(col) {
					return false
				}
			}
			lo := r.Intn(cols)
			hi := lo + r.Intn(cols-lo)
			sl, sh := a.SegRange(tr, lo, hi)
			if a.Seg[tr][sl].Start > lo || a.Seg[tr][sh].End <= hi {
				return false
			}
			if sl > sh {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseShiftStaggersBoundaries(t *testing.T) {
	a := MustNew(testParams(4, 40, 4))
	// With a nonzero phase step, track 0 and track 1 must not have identical
	// segmentation (that staggering is what makes Figure-2 situations arise).
	same := len(a.Seg[0]) == len(a.Seg[1])
	if same {
		for i := range a.Seg[0] {
			if a.Seg[0][i] != a.Seg[1][i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("tracks 0 and 1 have identical segmentation despite phase step")
	}
}

func TestVSegRange(t *testing.T) {
	a := MustNew(testParams(8, 20, 6)) // 9 channels, VSpan=3 -> 3 vsegs
	if a.NVSegs != 3 {
		t.Fatalf("NVSegs = %d, want 3", a.NVSegs)
	}
	cases := []struct{ chLo, chHi, lo, hi int }{
		{0, 0, 0, 0},
		{0, 2, 0, 0},
		{0, 3, 0, 1},
		{2, 7, 0, 2},
		{8, 8, 2, 2},
	}
	for _, c := range cases {
		lo, hi := a.VSegRange(c.chLo, c.chHi)
		if lo != c.lo || hi != c.hi {
			t.Errorf("VSegRange(%d,%d) = (%d,%d), want (%d,%d)", c.chLo, c.chHi, lo, hi, c.lo, c.hi)
		}
	}
}

func TestChannelOf(t *testing.T) {
	a := MustNew(testParams(4, 10, 4))
	if got := a.ChannelOf(2, Bottom); got != 2 {
		t.Errorf("ChannelOf(2, Bottom) = %d, want 2", got)
	}
	if got := a.ChannelOf(2, Top); got != 3 {
		t.Errorf("ChannelOf(2, Top) = %d, want 3", got)
	}
	if a.Channels() != 5 {
		t.Errorf("Channels() = %d, want 5", a.Channels())
	}
}

func TestPinmapPalette(t *testing.T) {
	for k := 0; k <= 8; k++ {
		seen := map[string]bool{}
		for v := 0; v < NumPinmaps; v++ {
			pm := PinmapFor(k, v)
			if len(pm) != k+1 {
				t.Fatalf("PinmapFor(%d,%d) length %d, want %d", k, v, len(pm), k+1)
			}
			key := ""
			for _, s := range pm {
				key += s.String() + ","
			}
			seen[key] = true
		}
		// For k >= 2 inputs all four variants must be distinct.
		if k >= 2 && len(seen) != NumPinmaps {
			t.Errorf("k=%d: only %d distinct pinmaps out of %d", k, len(seen), NumPinmaps)
		}
	}
}

func TestPinmapVariantWraps(t *testing.T) {
	a := PinmapFor(3, 1)
	b := PinmapFor(3, 1+NumPinmaps)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pinmap variant index does not wrap modulo NumPinmaps")
		}
	}
}

func TestAvgSegLen(t *testing.T) {
	p := testParams(2, 10, 2)
	p.SegPattern = []int{2, 4, 6}
	a := MustNew(p)
	if got := a.AvgSegLen(); got != 4 {
		t.Errorf("AvgSegLen = %v, want 4", got)
	}
}

func TestSlots(t *testing.T) {
	a := MustNew(testParams(7, 13, 3))
	if a.Slots() != 91 {
		t.Errorf("Slots = %d, want 91", a.Slots())
	}
}

// Track classes partition the tracks: each track sits in exactly one
// class's mask, a class's tracks have identical segments, two classes'
// segments differ, and a class's first track is its lowest. At the default
// pattern and phase step, 38 and 24 tracks both give 14 classes; 130 tracks
// need three mask words.
func TestTrackClasses(t *testing.T) {
	for _, tc := range []struct{ cols, tracks, want int }{{40, 38, 14}, {40, 24, 14}, {60, 130, 14}, {5, 9, -1}} {
		a := MustNew(Default(2, tc.cols, tc.tracks))
		if tc.want >= 0 && a.Classes() != tc.want {
			t.Errorf("%d tracks: %d classes, want %d", tc.tracks, a.Classes(), tc.want)
		}
		seen := make([]int, a.Tracks)
		for c := 0; c < a.Classes(); c++ {
			m := a.ClassMask(c)
			if len(m) != (a.Tracks+63)/64 {
				t.Fatalf("class %d mask has %d words", c, len(m))
			}
			first := -1
			for tr := 0; tr < len(m)*64; tr++ {
				if m[tr>>6]>>(tr&63)&1 == 0 {
					continue
				}
				if first < 0 {
					first = tr
				}
				if tr >= a.Tracks || !slices.Equal(a.Seg[tr], a.Seg[a.classLow[c]]) {
					t.Fatalf("%d tracks, class %d: track %d does not belong", tc.tracks, c, tr)
				}
				seen[tr]++
			}
			if first != a.classLow[c] || (c > 0 && a.classLow[c] <= a.classLow[c-1]) {
				t.Errorf("class %d: lowest track %d, recorded %d", c, first, a.classLow[c])
			}
			for d := 0; d < c; d++ {
				if slices.Equal(a.Seg[a.classLow[c]], a.Seg[a.classLow[d]]) {
					t.Errorf("classes %d and %d have the same segments", d, c)
				}
			}
		}
		for tr, n := range seen {
			if n != 1 {
				t.Errorf("%d tracks: track %d in %d classes", tc.tracks, tr, n)
			}
		}
	}
}

// ClassOrder lists every class once per interval, in ascending TrackCost of
// the class's lowest track, equal costs in class order, with bit 0 set on
// exactly the entries that cost the same as the one before. Four goroutines
// ask for every interval first, together, so the race detector sees the
// rankings.
func TestClassOrder(t *testing.T) {
	for _, p := range []Params{Default(2, 40, 38), Default(1, 23, 130), {
		Rows: 1, Cols: 31, Tracks: 70, SegPattern: []int{2, 7, 1, 5}, PhaseStep: 2, VTracks: 1, VSpan: 1,
	}} {
		a := MustNew(p)
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for lo := 0; lo < a.Cols; lo++ {
					for hi := lo; hi < a.Cols; hi++ {
						a.ClassOrder(lo, hi)
					}
				}
			}()
		}
		wg.Wait()
		for lo := 0; lo < a.Cols; lo++ {
			for hi := lo; hi < a.Cols; hi++ {
				ord := a.ClassOrder(lo, hi)
				if len(ord) != a.Classes() {
					t.Fatalf("%d tracks [%d,%d]: %d entries, %d classes", a.Tracks, lo, hi, len(ord), a.Classes())
				}
				seen := make([]bool, a.Classes())
				pv, pc := 0, -1
				for i, e := range ord {
					c := int(e >> 1)
					if seen[c] {
						t.Fatalf("%d tracks [%d,%d]: class %d listed twice", a.Tracks, lo, hi, c)
					}
					seen[c] = true
					v, _, _ := a.TrackCost(a.classLow[c], lo, hi)
					tie := i > 0 && v == pv
					if i > 0 && (v < pv || tie && c < pc) || e&1 == 1 != tie {
						t.Fatalf("%d tracks [%d,%d]: entry %d (class %d, cost %d, tie %d) after class %d at %d",
							a.Tracks, lo, hi, i, c, v, e&1, pc, pv)
					}
					pv, pc = v, c
				}
			}
		}
	}
}

package arch

import (
	"slices"
	"sync/atomic"
)

// The track-selection weights of segmented channel routing: per column of
// allocated-but-unneeded segment length, and per segment used (each extra
// segment implies an antifuse).
const (
	wWaste = 1
	wSegs  = 4
)

// maxTracks bounds the tracks per channel, so a class number fits beside
// ClassOrder's tie bit in 16 bits.
const maxTracks = 1<<15 - 1

// TrackCost returns the cost of covering columns [lo, hi] on track t and the
// segments [sl, sh] that cover them: weighted wastage plus weighted segment
// count.
func (a *Arch) TrackCost(t, lo, hi int) (c, sl, sh int) {
	sl, sh = a.SegRange(t, lo, hi)
	segs := a.Seg[t]
	waste := (segs[sh].End - segs[sl].Start) - (hi - lo + 1)
	return wWaste*waste + wSegs*(sh-sl+1), sl, sh
}

// buildClasses groups the tracks into classes of identical segments and
// allocates ClassOrder's table.
func (a *Arch) buildClasses() {
	w := (a.Tracks + 63) >> 6
	for t, segs := range a.Seg {
		c := slices.IndexFunc(a.classLow, func(u int) bool { return slices.Equal(a.Seg[u], segs) })
		if c < 0 {
			c = len(a.classLow)
			a.classLow = append(a.classLow, t)
			a.classMask = append(a.classMask, make([]uint64, w)...)
		}
		a.classMask[c*w+t>>6] |= 1 << (uint(t) & 63)
	}
	n := a.Cols * (a.Cols + 1) / 2
	a.order = make([]uint16, n*len(a.classLow))
	a.ranked = make([]atomic.Bool, n)
	a.keys = make([]uint64, len(a.classLow))
}

// Classes returns the number of track classes: groups of tracks whose
// segments are identical.
func (a *Arch) Classes() int { return len(a.classLow) }

// ClassMask returns class c's tracks as a bitset: track t is bit t%64 of word
// t/64. The slice is shared and must not be modified.
func (a *Arch) ClassMask(c int) []uint64 {
	w := (a.Tracks + 63) >> 6
	return a.classMask[c*w : (c+1)*w : (c+1)*w]
}

// ClassOrder returns the track classes in ascending TrackCost over columns
// [lo, hi], lo <= hi, equal costs in class order. Entry i is the i-th
// cheapest class as class<<1, with bit 0 set when its cost equals the
// previous entry's. The slice is shared and must not be modified.
//
// An interval is ranked on its first request and read on every later one,
// from any fabric on the architecture. It is safe for concurrent use.
func (a *Arch) ClassOrder(lo, hi int) []uint16 {
	k := lo*(2*a.Cols-lo+1)/2 + hi - lo
	n := len(a.classLow)
	ord := a.order[k*n : (k+1)*n : (k+1)*n]
	if !a.ranked[k].Load() {
		a.mu.Lock()
		if !a.ranked[k].Load() {
			a.rank(ord, lo, hi)
			a.ranked[k].Store(true)
		}
		a.mu.Unlock()
	}
	return ord
}

// rank writes ClassOrder's entries for columns [lo, hi] into ord. It sorts
// one key per class, cost<<16 | class, so equal costs stay in class order.
func (a *Arch) rank(ord []uint16, lo, hi int) {
	keys := a.keys
	for c, t := range a.classLow {
		v, _, _ := a.TrackCost(t, lo, hi)
		k := uint64(v)<<16 | uint64(c)
		i := c
		for ; i > 0 && keys[i-1] > k; i-- {
			keys[i] = keys[i-1]
		}
		keys[i] = k
	}
	for i, k := range keys {
		ord[i] = uint16(k) << 1
		if i > 0 && k>>16 == keys[i-1]>>16 {
			ord[i] |= 1
		}
	}
}

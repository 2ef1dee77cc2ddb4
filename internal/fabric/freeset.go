package fabric

import (
	"fmt"
	"math/bits"
)

// The free sets mirror the ownership tables as bitsets, so that "can any
// track host this run?" is a handful of word ANDs instead of a scan. They are
// kept in step by every AllocH/FreeH/AllocV/FreeV (and so by InstallRoute and
// RemoveRoute), reset by Reset and copied by Clone.
//
//   - hfree, per channel and column: bit t is set iff the segment of track t
//     covering that column is free. A track can host columns [lo, hi] iff its
//     segments covering them are all free, that is iff bit t is set at every
//     column of [lo, hi]: the fit set is the AND of those columns' words.
//   - vfree, per vertical segment: bit col*VTracks+vtrack is set iff that
//     segment of (col, vtrack) is free. The (column, vtrack) pairs that can
//     host vertical segments [vLo, vHi] are the AND over those segments.
//
// Both are multiword (hw and vw words per entry), and the bits past Tracks
// and past Cols*VTracks stay clear, so an answer never names a resource that
// does not exist.

// Bits is a multiword bitset: element i is bit i%64 of word i/64.
type Bits []uint64

// Empty reports whether no element is set.
func (b Bits) Empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Next returns the smallest element >= i, or -1 if there is none.
func (b Bits) Next(i int) int {
	if i < 0 {
		i = 0
	}
	k := i >> 6
	if k >= len(b) {
		return -1
	}
	w := b[k] &^ (1<<(uint(i)&63) - 1)
	for {
		if w != 0 {
			return k<<6 + bits.TrailingZeros64(w)
		}
		k++
		if k == len(b) {
			return -1
		}
		w = b[k]
	}
}

// Prev returns the largest element <= i, or -1 if there is none.
func (b Bits) Prev(i int) int {
	if i < 0 || len(b) == 0 {
		return -1
	}
	k := i >> 6
	if k >= len(b) {
		k, i = len(b)-1, len(b)<<6-1
	}
	w := b[k] & (2<<(uint(i)&63) - 1)
	for {
		if w != 0 {
			return k<<6 + 63 - bits.LeadingZeros64(w)
		}
		k--
		if k < 0 {
			return -1
		}
		w = b[k]
	}
}

// words returns the number of 64-bit words holding n bits.
func words(n int) int { return (n + 63) >> 6 }

// fillFree marks every existing resource free in both sets.
func (f *Fabric) fillFree() {
	a := f.A
	for i := 0; i < len(f.hfree); i += f.hw {
		setLow(f.hfree[i:i+f.hw], a.Tracks)
	}
	for i := 0; i < len(f.vfree); i += f.vw {
		setLow(f.vfree[i:i+f.vw], a.Cols*a.VTracks)
	}
}

// setLow sets elements [0, n) of b and clears the rest.
func setLow(b []uint64, n int) {
	for k := range b {
		switch {
		case n >= 64*(k+1):
			b[k] = ^uint64(0)
		case n > 64*k:
			b[k] = 1<<(uint(n)&63) - 1
		default:
			b[k] = 0
		}
	}
}

// markH sets (free) or clears bit track at every column that segments
// [segLo, segHi] of the track cover in channel ch.
func (f *Fabric) markH(ch, track, segLo, segHi int, free bool) {
	segs := f.A.Seg[track]
	bit := uint64(1) << (uint(track) & 63)
	row := (ch * f.A.Cols) * f.hw
	end := row + segs[segHi].End*f.hw
	for i := row + segs[segLo].Start*f.hw + track>>6; i < end; i += f.hw {
		if free {
			f.hfree[i] |= bit
		} else {
			f.hfree[i] &^= bit
		}
	}
}

// markV sets (free) or clears the bit of (col, vtrack) in vertical segments
// [vLo, vHi].
func (f *Fabric) markV(col, vtrack, vLo, vHi int, free bool) {
	p := col*f.A.VTracks + vtrack
	bit := uint64(1) << (uint(p) & 63)
	for s := vLo; s <= vHi; s++ {
		i := s*f.vw + p>>6
		if free {
			f.vfree[i] |= bit
		} else {
			f.vfree[i] &^= bit
		}
	}
}

// andInto sets dst to the AND of n consecutive len(dst)-word entries of src
// starting at word base. It stops early once the result is empty, leaving dst
// all zero.
func andInto(dst, src []uint64, base, n int) {
	if len(dst) == 1 {
		x := src[base]
		for i := base + 1; n > 1 && x != 0; i, n = i+1, n-1 {
			x &= src[i]
		}
		dst[0] = x
		return
	}
	var nz uint64
	for k := range dst {
		dst[k] = src[base+k]
		nz |= dst[k]
	}
	for i := base + len(dst); n > 1 && nz != 0; i, n = i+len(dst), n-1 {
		nz = 0
		for k := range dst {
			dst[k] &= src[i+k]
			nz |= dst[k]
		}
	}
}

// HFit returns the tracks of channel ch whose segments covering columns
// [lo, hi] are all free: exactly the tracks t for which HRangeFree(ch, t,
// SegRange(t, lo, hi)) holds. The set lives in the fabric's query scratch and
// is valid until the next HFit or VFit call on this fabric; like every other
// method, fit queries are not safe for concurrent use.
func (f *Fabric) HFit(ch, lo, hi int) Bits {
	andInto(f.fit[:f.hw], f.hfree, (ch*f.A.Cols+lo)*f.hw, hi-lo+1)
	return f.fit[:f.hw]
}

// VFit returns the (column, vtrack) pairs, packed as col*VTracks+vtrack,
// whose vertical segments [vLo, vHi] are all free. Scratch rules as HFit.
func (f *Fabric) VFit(vLo, vHi int) Bits {
	andInto(f.fit[:f.vw], f.vfree, vLo*f.vw, vHi-vLo+1)
	return f.fit[:f.vw]
}

// CheckFreeSets verifies that the free sets match the ownership tables
// exactly, bits past the last resource included. It is a self-check for
// tests and the optimizer's Check; reloading a layout does not need it,
// since the sets are maintained by the same calls that fill the tables.
func (f *Fabric) CheckFreeSets() error {
	a := f.A
	want := make([]uint64, max(f.hw, f.vw))
	for ch := range f.h {
		for col := 0; col < a.Cols; col++ {
			w := want[:f.hw]
			clear(w)
			for t := range f.h[ch] {
				if f.h[ch][t][a.SegIndexAt(t, col)] == Free {
					w[t>>6] |= 1 << (uint(t) & 63)
				}
			}
			got := f.hfree[(ch*a.Cols+col)*f.hw:][:f.hw]
			for k := range w {
				if got[k] != w[k] {
					return fmt.Errorf("fabric: free tracks of channel %d column %d, word %d: %#x, ownership says %#x",
						ch, col, k, got[k], w[k])
				}
			}
		}
	}
	for s := 0; s < a.NVSegs; s++ {
		w := want[:f.vw]
		clear(w)
		for col := range f.v {
			for vt := range f.v[col] {
				if f.v[col][vt][s] == Free {
					p := col*a.VTracks + vt
					w[p>>6] |= 1 << (uint(p) & 63)
				}
			}
		}
		got := f.vfree[s*f.vw:][:f.vw]
		for k := range w {
			if got[k] != w[k] {
				return fmt.Errorf("fabric: free (column, vtrack) pairs of vertical segment %d, word %d: %#x, ownership says %#x",
					s, k, got[k], w[k])
			}
		}
	}
	return nil
}

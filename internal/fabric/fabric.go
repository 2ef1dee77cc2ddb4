// Package fabric manages the physical routing resources of a row-based FPGA
// instance: ownership of every horizontal track segment in every channel and
// of every vertical track segment in every column, plus the route descriptors
// that record which resources a net currently holds. Both the incremental
// (in-the-annealing-loop) and the full (sequential-flow) routers allocate
// through this package, so resource accounting is exact by construction.
package fabric

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/metrics"
)

// Free marks an unowned segment in the ownership tables.
const Free int32 = -1

// Fabric tracks segment ownership. Ownership violations (allocating an owned
// segment, freeing a segment not owned by the caller) are programming errors
// in the routers and panic.
type Fabric struct {
	A *arch.Arch

	// Stats accumulates the routers' work against this fabric (its router
	// fields; the analyzer counts the timing ones). Cloned fabrics carry the
	// counts forward, so parallel chains keep independent tallies.
	Stats metrics.Work

	h [][][]int32 // [channel][track][segment] -> owning net or Free
	v [][][]int32 // [column][vtrack][vsegment] -> owning net or Free

	usedH, usedV int

	// Free sets (see freeset.go): hw words per (channel, column) entry of
	// hfree, vw words per vertical-segment entry of vfree, and fit, the
	// scratch that HFit and VFit return.
	hw, vw       int
	hfree, vfree []uint64
	fit          []uint64
}

// New returns an empty fabric for the architecture.
func New(a *arch.Arch) *Fabric {
	f := &Fabric{A: a, hw: words(a.Tracks), vw: words(a.Cols * a.VTracks)}
	f.hfree = make([]uint64, a.Channels()*a.Cols*f.hw)
	f.vfree = make([]uint64, a.NVSegs*f.vw)
	f.fit = make([]uint64, max(f.hw, f.vw))
	f.fillFree()
	f.h = make([][][]int32, a.Channels())
	for ch := range f.h {
		f.h[ch] = make([][]int32, a.Tracks)
		for t := range f.h[ch] {
			row := make([]int32, len(a.Seg[t]))
			for i := range row {
				row[i] = Free
			}
			f.h[ch][t] = row
		}
	}
	f.v = make([][][]int32, a.Cols)
	for c := range f.v {
		f.v[c] = make([][]int32, a.VTracks)
		for t := range f.v[c] {
			row := make([]int32, a.NVSegs)
			for i := range row {
				row[i] = Free
			}
			f.v[c][t] = row
		}
	}
	return f
}

// Clone returns a deep copy of the ownership tables and free sets, with its
// own query scratch, sharing only the immutable architecture.
func (f *Fabric) Clone() *Fabric {
	c := &Fabric{A: f.A, Stats: f.Stats, usedH: f.usedH, usedV: f.usedV,
		hw: f.hw, vw: f.vw,
		hfree: append([]uint64(nil), f.hfree...),
		vfree: append([]uint64(nil), f.vfree...),
		fit:   make([]uint64, len(f.fit))}
	c.h = make([][][]int32, len(f.h))
	for ch := range f.h {
		c.h[ch] = make([][]int32, len(f.h[ch]))
		for t := range f.h[ch] {
			c.h[ch][t] = append([]int32(nil), f.h[ch][t]...)
		}
	}
	c.v = make([][][]int32, len(f.v))
	for col := range f.v {
		c.v[col] = make([][]int32, len(f.v[col]))
		for t := range f.v[col] {
			c.v[col][t] = append([]int32(nil), f.v[col][t]...)
		}
	}
	return c
}

// Reset frees every segment.
func (f *Fabric) Reset() {
	f.fillFree()
	for _, ch := range f.h {
		for _, t := range ch {
			for i := range t {
				t[i] = Free
			}
		}
	}
	for _, c := range f.v {
		for _, t := range c {
			for i := range t {
				t[i] = Free
			}
		}
	}
	f.usedH, f.usedV = 0, 0
}

// HOwner returns the net owning horizontal segment (ch, track, seg), or Free.
func (f *Fabric) HOwner(ch, track, seg int) int32 { return f.h[ch][track][seg] }

// VOwner returns the net owning vertical segment (col, vtrack, vseg), or Free.
func (f *Fabric) VOwner(col, vtrack, vseg int) int32 { return f.v[col][vtrack][vseg] }

// HRangeFree reports whether horizontal segments [segLo, segHi] on (ch, track)
// are all free.
func (f *Fabric) HRangeFree(ch, track, segLo, segHi int) bool {
	row := f.h[ch][track]
	for i := segLo; i <= segHi; i++ {
		if row[i] != Free {
			return false
		}
	}
	return true
}

// VRangeFree reports whether vertical segments [vLo, vHi] on (col, vtrack)
// are all free.
func (f *Fabric) VRangeFree(col, vtrack, vLo, vHi int) bool {
	row := f.v[col][vtrack]
	for i := vLo; i <= vHi; i++ {
		if row[i] != Free {
			return false
		}
	}
	return true
}

// AllocH assigns horizontal segments [segLo, segHi] on (ch, track) to net.
func (f *Fabric) AllocH(ch, track, segLo, segHi int, net int32) {
	row := f.h[ch][track]
	for i := segLo; i <= segHi; i++ {
		if row[i] != Free {
			panic(fmt.Sprintf("fabric: AllocH ch=%d track=%d seg=%d already owned by net %d (want net %d)",
				ch, track, i, row[i], net))
		}
		row[i] = net
	}
	f.usedH += segHi - segLo + 1
	f.markH(ch, track, segLo, segHi, false)
}

// FreeH releases horizontal segments [segLo, segHi] on (ch, track) owned by net.
func (f *Fabric) FreeH(ch, track, segLo, segHi int, net int32) {
	row := f.h[ch][track]
	for i := segLo; i <= segHi; i++ {
		if row[i] != net {
			panic(fmt.Sprintf("fabric: FreeH ch=%d track=%d seg=%d owned by net %d, not %d",
				ch, track, i, row[i], net))
		}
		row[i] = Free
	}
	f.usedH -= segHi - segLo + 1
	f.markH(ch, track, segLo, segHi, true)
}

// AllocV assigns vertical segments [vLo, vHi] on (col, vtrack) to net.
func (f *Fabric) AllocV(col, vtrack, vLo, vHi int, net int32) {
	row := f.v[col][vtrack]
	for i := vLo; i <= vHi; i++ {
		if row[i] != Free {
			panic(fmt.Sprintf("fabric: AllocV col=%d vtrack=%d vseg=%d already owned by net %d (want net %d)",
				col, vtrack, i, row[i], net))
		}
		row[i] = net
	}
	f.usedV += vHi - vLo + 1
	f.markV(col, vtrack, vLo, vHi, false)
}

// FreeV releases vertical segments [vLo, vHi] on (col, vtrack) owned by net.
func (f *Fabric) FreeV(col, vtrack, vLo, vHi int, net int32) {
	row := f.v[col][vtrack]
	for i := vLo; i <= vHi; i++ {
		if row[i] != net {
			panic(fmt.Sprintf("fabric: FreeV col=%d vtrack=%d vseg=%d owned by net %d, not %d",
				col, vtrack, i, row[i], net))
		}
		row[i] = Free
	}
	f.usedV -= vHi - vLo + 1
	f.markV(col, vtrack, vLo, vHi, true)
}

// UsedH returns the number of horizontal segments currently owned.
func (f *Fabric) UsedH() int { return f.usedH }

// UsedV returns the number of vertical segments currently owned.
func (f *Fabric) UsedV() int { return f.usedV }

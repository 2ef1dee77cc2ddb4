package fabric

import (
	"fmt"
	"slices"

	"repro/internal/arch"
)

// ChanAssign describes a net's presence in one channel: the column interval
// it must cover there and, once detail-routed, the track and segment run
// assigned (Track == -1 while unrouted in this channel). A net uses exactly
// one track per channel it crosses — the single-track constraint imposed by
// antifuse placement in row-based parts (paper §2.1).
type ChanAssign struct {
	Ch     int
	Lo, Hi int // inclusive column interval to cover

	Track        int // -1 if not detail-routed in this channel
	SegLo, SegHi int // inclusive segment indices on Track when routed
}

// Routed reports whether the channel assignment is detail-routed.
func (c *ChanAssign) Routed() bool { return c.Track >= 0 }

// NetRoute is the complete disposition of one net (paper §3.2 "Net Segment
// Assignments"): unrouted, globally routed (vertical/trunk resources held,
// channel intervals known), or globally and detail routed.
type NetRoute struct {
	// Global is true once vertical resources (if any are needed) are assigned
	// and the per-channel intervals are derived.
	Global bool

	// HasTrunk is true when the net spans multiple channels and therefore
	// holds vertical segments.
	HasTrunk             bool
	TrunkCol, TrunkTrack int
	VLo, VHi             int // inclusive vertical segment indices

	// Chans lists every channel in which the net needs horizontal routing,
	// in ascending channel order.
	Chans []ChanAssign
}

// Reset returns the route to the completely-unrouted state, keeping only the
// Chans storage (the caller must free fabric resources first).
func (r *NetRoute) Reset() {
	*r = NetRoute{Chans: r.Chans[:0]}
}

// DetailDone reports whether the net is globally routed and every channel
// assignment is routed.
func (r *NetRoute) DetailDone() bool {
	if !r.Global {
		return false
	}
	for i := range r.Chans {
		if !r.Chans[i].Routed() {
			return false
		}
	}
	return true
}

// UnroutedChans returns how many needed channels lack a detailed route.
func (r *NetRoute) UnroutedChans() int {
	n := 0
	for i := range r.Chans {
		if !r.Chans[i].Routed() {
			n++
		}
	}
	return n
}

// Clone returns a deep copy, used by the simultaneous optimizer's undo
// journal.
func (r *NetRoute) Clone() NetRoute {
	c := *r
	c.Chans = append([]ChanAssign(nil), r.Chans...)
	return c
}

// CopyFrom makes r a deep copy of src, reusing r's Chans storage.
func (r *NetRoute) CopyFrom(src *NetRoute) {
	chans := r.Chans[:0]
	chans = append(chans, src.Chans...)
	*r = *src
	r.Chans = chans
}

// Equal reports whether every field of the two routes is equal. Fields a
// route does not use are zero (see Reset and droute.UnrouteChan), so a route
// equals its reload from the layout format.
func (r *NetRoute) Equal(o *NetRoute) bool {
	return r.Global == o.Global && r.HasTrunk == o.HasTrunk &&
		r.TrunkCol == o.TrunkCol && r.TrunkTrack == o.TrunkTrack && r.VLo == o.VLo && r.VHi == o.VHi &&
		slices.Equal(r.Chans, o.Chans)
}

// AntifuseCount returns the number of programmed antifuses the route implies:
// horizontal antifuses between consecutive segments, vertical antifuses
// between consecutive vertical segments, one vertical-to-horizontal antifuse
// per routed channel when a trunk exists, plus cross antifuses for pins
// (added by the timing model, not counted here).
func (r *NetRoute) AntifuseCount() int {
	n := 0
	for i := range r.Chans {
		if r.Chans[i].Routed() {
			n += r.Chans[i].SegHi - r.Chans[i].SegLo
			if r.HasTrunk {
				n++ // tap from trunk into this channel's track
			}
		}
	}
	if r.HasTrunk {
		n += r.VHi - r.VLo
	}
	return n
}

// claims are the dense claim tables of a set of routes: per horizontal and
// vertical segment, claimant + 1, or 0 where no route claims the segment, so
// claim - 1 is the owner a fabric holding exactly those routes has (Free is
// -1). They follow the ownership tables' iteration order: channel ch, track
// t's horizontal segments start at h[ch*perCh+hOff[t]]; column c, vertical
// track t's at v[(c*a.VTracks+t)*a.NVSegs].
type claims struct {
	hOff  []int
	perCh int
	h, v  []int32
}

// claim fills the claim tables, failing on the first route that leaves the
// architecture, holds a trunk without being global, routes a channel on a
// run that does not cover its interval, or claims a segment already claimed.
func claim(a *arch.Arch, routes []NetRoute) (claims, error) {
	c := claims{hOff: make([]int, a.Tracks+1)}
	for t := 0; t < a.Tracks; t++ {
		c.hOff[t+1] = c.hOff[t] + len(a.Seg[t])
	}
	c.perCh = c.hOff[a.Tracks]
	c.h = make([]int32, a.Channels()*c.perCh)
	c.v = make([]int32, a.Cols*a.VTracks*a.NVSegs)
	for id := range routes {
		r := &routes[id]
		if r.HasTrunk {
			if !r.Global {
				return claims{}, fmt.Errorf("fabric: net %d has trunk but not global", id)
			}
			if r.TrunkCol < 0 || r.TrunkCol >= a.Cols || r.TrunkTrack < 0 || r.TrunkTrack >= a.VTracks ||
				r.VLo < 0 || r.VHi < r.VLo || r.VHi >= a.NVSegs {
				return claims{}, fmt.Errorf("fabric: net %d trunk col=%d t=%d [%d,%d] out of range", id, r.TrunkCol, r.TrunkTrack, r.VLo, r.VHi)
			}
			row := c.v[(r.TrunkCol*a.VTracks+r.TrunkTrack)*a.NVSegs:]
			for s := r.VLo; s <= r.VHi; s++ {
				if prev := row[s]; prev != 0 {
					return claims{}, fmt.Errorf("fabric: nets %d and %d both claim vseg %v", prev-1, id, [3]int{r.TrunkCol, r.TrunkTrack, s})
				}
				row[s] = int32(id) + 1
			}
		}
		for i := range r.Chans {
			ca := &r.Chans[i]
			if !ca.Routed() {
				continue
			}
			if ca.Ch < 0 || ca.Ch >= a.Channels() || ca.Track >= a.Tracks ||
				ca.SegLo < 0 || ca.SegHi < ca.SegLo || ca.SegHi >= len(a.Seg[ca.Track]) {
				return claims{}, fmt.Errorf("fabric: net %d channel %d track %d run [%d,%d] out of range", id, ca.Ch, ca.Track, ca.SegLo, ca.SegHi)
			}
			segs := a.Seg[ca.Track]
			if segs[ca.SegLo].Start > ca.Lo || segs[ca.SegHi].End <= ca.Hi {
				return claims{}, fmt.Errorf("fabric: net %d channel %d assignment does not cover [%d,%d]", id, ca.Ch, ca.Lo, ca.Hi)
			}
			row := c.h[ca.Ch*c.perCh+c.hOff[ca.Track]:]
			for s := ca.SegLo; s <= ca.SegHi; s++ {
				if prev := row[s]; prev != 0 {
					return claims{}, fmt.Errorf("fabric: nets %d and %d both claim hseg %v", prev-1, id, [3]int{ca.Ch, ca.Track, s})
				}
				row[s] = int32(id) + 1
			}
		}
	}
	return c, nil
}

// CheckExclusive verifies that the routes fit the architecture and that no
// two of them, and no route twice, claim one segment: the conditions under
// which a fresh fabric could install them all. It builds no fabric, so
// layio.Read runs it on every reload. CheckConsistent starts from the same
// tables.
func CheckExclusive(a *arch.Arch, routes []NetRoute) error {
	_, err := claim(a, routes)
	return err
}

// CheckConsistent verifies that the ownership tables are exactly the union of
// the given routes: every resource held by route i is owned by net i in the
// fabric and vice versa. Used by tests and the optimizer's self-checks; its
// claim tables are dense arrays.
func (f *Fabric) CheckConsistent(routes []NetRoute) error {
	a := f.A
	c, err := claim(a, routes)
	if err != nil {
		return err
	}
	for ch := range f.h {
		for t := range f.h[ch] {
			row := c.h[ch*c.perCh+c.hOff[t]:]
			for s, owner := range f.h[ch][t] {
				if want := row[s] - 1; owner != want {
					return fmt.Errorf("fabric: hseg ch=%d t=%d s=%d owner=%d want=%d", ch, t, s, owner, want)
				}
			}
		}
	}
	for col := range f.v {
		for t := range f.v[col] {
			row := c.v[(col*a.VTracks+t)*a.NVSegs:]
			for s, owner := range f.v[col][t] {
				if want := row[s] - 1; owner != want {
					return fmt.Errorf("fabric: vseg col=%d t=%d s=%d owner=%d want=%d", col, t, s, owner, want)
				}
			}
		}
	}
	return nil
}

// InstallRoute allocates every resource named by r for net id. It is the
// inverse of RemoveRoute and is used when restoring a journaled route.
func (f *Fabric) InstallRoute(id int32, r *NetRoute) {
	if r.HasTrunk {
		f.AllocV(r.TrunkCol, r.TrunkTrack, r.VLo, r.VHi, id)
	}
	for i := range r.Chans {
		if r.Chans[i].Routed() {
			f.AllocH(r.Chans[i].Ch, r.Chans[i].Track, r.Chans[i].SegLo, r.Chans[i].SegHi, id)
		}
	}
}

// RemoveRoute frees every resource named by r for net id. The route
// descriptor itself is left unchanged; callers Reset it if the net is being
// ripped up (as opposed to journaled).
func (f *Fabric) RemoveRoute(id int32, r *NetRoute) {
	if r.HasTrunk {
		f.FreeV(r.TrunkCol, r.TrunkTrack, r.VLo, r.VHi, id)
	}
	for i := range r.Chans {
		if r.Chans[i].Routed() {
			f.FreeH(r.Chans[i].Ch, r.Chans[i].Track, r.Chans[i].SegLo, r.Chans[i].SegHi, id)
		}
	}
}

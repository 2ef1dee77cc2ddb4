// Package groute implements global routing for row-based FPGAs: assigning
// vertical segments ("feedthroughs") to nets that span multiple channels and
// deriving the per-channel column intervals that define each channel's
// detailed-routing problem. The heuristic follows the paper (§3.3): take the
// free vertical segment run closest to the center of the net's bounding box.
// The same primitive serves both the incremental in-the-loop router and the
// sequential baseline's one-shot full global route.
package groute

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/layout"
)

// appendNeeds derives the channel intervals a net requires given the current
// placement and pinmaps, before any trunk extension: one ChanAssign (with
// Track == -1) per channel containing at least one of the net's pins. It
// appends them to dst (reusing its storage) and returns it sorted by
// channel. Nets touch at most a handful of channels, so linear insertion
// into channel order beats any map or sort — and, unlike sort.Slice,
// allocates nothing, which matters because this runs on every
// rip-up/re-route of the annealer's inner loop. Channels are unique keys, so
// the result is identical to the historical append-then-sort.
func appendNeeds(dst []fabric.ChanAssign, p *layout.Placement, id int32) []fabric.ChanAssign {
	n := &p.NL.Nets[id]
	ch, col := p.PinPos(n.Driver)
	dst = insertNeed(dst, ch, col)
	for _, s := range n.Sinks {
		ch, col = p.PinPos(s)
		dst = insertNeed(dst, ch, col)
	}
	return dst
}

// insertNeed merges pin position (ch, col) into the channel-sorted needs list.
func insertNeed(dst []fabric.ChanAssign, ch, col int) []fabric.ChanAssign {
	i := 0
	for i < len(dst) && dst[i].Ch < ch {
		i++
	}
	if i < len(dst) && dst[i].Ch == ch {
		if col < dst[i].Lo {
			dst[i].Lo = col
		}
		if col > dst[i].Hi {
			dst[i].Hi = col
		}
		return dst
	}
	dst = append(dst, fabric.ChanAssign{})
	copy(dst[i+1:], dst[i:])
	dst[i] = fabric.ChanAssign{Ch: ch, Lo: col, Hi: col, Track: -1}
	return dst
}

// Route attempts to globally route net id into r, which must be in the reset
// (unrouted) state. On success it allocates any vertical resources in f,
// fills r.Chans with the channel intervals (all detail-unrouted), and returns
// true. On failure r is left reset and false is returned.
//
// Single-channel nets need no vertical resources and always succeed. Nets
// with no sinks are trivially globally routed with no resources at all.
func Route(f *fabric.Fabric, p *layout.Placement, id int32, r *fabric.NetRoute) bool {
	f.Stats.GRouteAttempts++
	if len(p.NL.Nets[id].Sinks) == 0 {
		r.Global = true
		return true
	}
	chans := appendNeeds(r.Chans[:0], p, id)
	r.Chans = chans[:0] // reclaim storage; refilled below on success
	// The cached bounding box covers the same pins appendNeeds just visited:
	// its channel span matches chans' first/last entries and its column span is
	// the union of their intervals, so it substitutes exactly for a rescan.
	box := p.NetBox(id)
	chLo, chHi := box.ChLo, box.ChHi
	if chLo == chHi {
		r.Global = true
		r.Chans = append(r.Chans[:0], chans...)
		return true
	}

	// Multi-channel: take the free vertical run nearest the bounding-box
	// center.
	a := f.A
	vLo, vHi := a.VSegRange(chLo, chHi)
	if col, vt, ok := nearestRun(f.VFit(vLo, vHi), a.VTracks, (box.ColLo+box.ColHi)/2); ok {
		f.AllocV(col, vt, vLo, vHi, id)
		r.Global = true
		r.HasTrunk = true
		r.TrunkCol, r.TrunkTrack = col, vt
		r.VLo, r.VHi = vLo, vHi
		r.Chans = r.Chans[:0]
		for _, c := range chans {
			if col < c.Lo {
				c.Lo = col
			}
			if col > c.Hi {
				c.Hi = col
			}
			r.Chans = append(r.Chans, c)
		}
		return true
	}
	f.Stats.GRouteFails++
	return false
}

// CheckRoute reports whether r is exactly what Route derives for net id from
// the current pins, whatever trunk column and track it took: a route that is
// not global, or the global route of a sink-less net, holds nothing;
// otherwise r has one entry per channel holding a pin, in ascending order,
// each spanning that channel's pins, a trunk iff the pins span several
// channels, covering exactly their vertical segment range, and every
// interval reaches the trunk column. Fields the layout format does not carry
// are zero: the trunk fields of a route without a trunk, and the segment run
// of an open channel entry (whose track is -1). Resource ranges and
// exclusivity are fabric.CheckExclusive's. scratch is reused for the derived
// needs and returned for the next call.
func CheckRoute(p *layout.Placement, id int32, r *fabric.NetRoute, scratch []fabric.ChanAssign) ([]fabric.ChanAssign, error) {
	if !r.HasTrunk && (r.TrunkCol != 0 || r.TrunkTrack != 0 || r.VLo != 0 || r.VHi != 0) {
		return scratch, fmt.Errorf("route without a trunk holds trunk fields col %d track %d vsegs [%d,%d]",
			r.TrunkCol, r.TrunkTrack, r.VLo, r.VHi)
	}
	if !r.Global || len(p.NL.Nets[id].Sinks) == 0 {
		if r.HasTrunk || len(r.Chans) > 0 {
			return scratch, fmt.Errorf("route holds %d channel entries and trunk %v, want none (global %v, %d sinks)",
				len(r.Chans), r.HasTrunk, r.Global, len(p.NL.Nets[id].Sinks))
		}
		return scratch, nil
	}
	need := appendNeeds(scratch[:0], p, id)
	if len(r.Chans) != len(need) {
		return need, fmt.Errorf("route has %d channel entries, its pins need %d", len(r.Chans), len(need))
	}
	multi := len(need) > 1
	if r.HasTrunk != multi {
		return need, fmt.Errorf("route has trunk %v, its pins span %d channels", r.HasTrunk, len(need))
	}
	if multi {
		if vLo, vHi := p.A.VSegRange(need[0].Ch, need[len(need)-1].Ch); r.VLo != vLo || r.VHi != vHi {
			return need, fmt.Errorf("trunk spans vsegs [%d,%d], its pins need [%d,%d]", r.VLo, r.VHi, vLo, vHi)
		}
	}
	for i, want := range need {
		if r.HasTrunk {
			want.Lo, want.Hi = min(want.Lo, r.TrunkCol), max(want.Hi, r.TrunkCol)
		}
		ca := &r.Chans[i]
		if ca.Ch != want.Ch || ca.Lo != want.Lo || ca.Hi != want.Hi {
			return need, fmt.Errorf("channel entry %d is channel %d [%d,%d], its pins need channel %d [%d,%d]",
				i, ca.Ch, ca.Lo, ca.Hi, want.Ch, want.Lo, want.Hi)
		}
		if !ca.Routed() && (ca.Track != -1 || ca.SegLo != 0 || ca.SegHi != 0) {
			return need, fmt.Errorf("open channel entry %d holds track %d run [%d,%d]", i, ca.Track, ca.SegLo, ca.SegHi)
		}
	}
	return need, nil
}

// nearestRun picks from fit, a set of (column, vtrack) pairs packed as
// col*vtracks+vtrack, the pair in the column nearest center, preferring the
// left column at equal distance and the lowest vtrack within a column.
func nearestRun(fit fabric.Bits, vtracks, center int) (col, vt int, ok bool) {
	right := fit.Next(center * vtracks) // lowest vtrack of the nearest column >= center
	left := fit.Prev(center*vtracks - 1)
	if left >= 0 {
		left = fit.Next(left / vtracks * vtracks) // lowest vtrack of that column
	}
	switch {
	case left >= 0 && (right < 0 || center-left/vtracks <= right/vtracks-center):
		return left / vtracks, left % vtracks, true
	case right >= 0:
		return right / vtracks, right % vtracks, true
	}
	return 0, 0, false
}

// RipUp releases everything net id holds and resets its route descriptor.
func RipUp(f *fabric.Fabric, id int32, r *fabric.NetRoute) {
	f.Stats.RipUps++
	f.RemoveRoute(id, r)
	r.Reset()
}

// RouteAll globally routes every net from scratch in decreasing
// estimated-length order (the sequential flow's one-shot global route, after
// [7]). It returns the ids of nets that could not be globally routed.
func RouteAll(f *fabric.Fabric, p *layout.Placement, routes []fabric.NetRoute) []int32 {
	order := make([]int32, len(routes))
	length := make([]float64, len(routes))
	for i := range routes {
		order[i] = int32(i)
		length[i] = p.EstLength(int32(i))
	}
	// Determinism audit note: the relative order of equal-length nets is
	// whatever sort.Slice yields, which is deterministic for a fixed input
	// (pdqsort is not randomized) but unspecified. An explicit id tiebreak
	// here would reorder equal-length nets and change every downstream
	// fixed-seed result, so the historical order is kept deliberately; the
	// fixed-seed golden test in internal/core pins it.
	sort.Slice(order, func(i, j int) bool { return length[order[i]] > length[order[j]] })
	var failed []int32
	for _, id := range order {
		if !Route(f, p, id, &routes[id]) {
			failed = append(failed, id)
		}
	}
	return failed
}

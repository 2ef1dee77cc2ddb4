package core

import (
	"fmt"
	"math"

	"repro/internal/fabric"
	"repro/internal/groute"
	"repro/internal/timing"
)

// Check verifies every cross-structure invariant of the optimizer state from
// scratch: placement legality, fabric/route consistency, the fabric's free
// sets, the G and D counters, the unrouted list and its wake index, route
// geometry against current pin positions, and the incremental timing view
// against a full recomputation. Tests call it after move bursts; it is far
// too slow for the inner loop. Any change to engine state must keep it
// passing.
func (o *Optimizer) Check() error {
	if o.moveKind != moveNone {
		return fmt.Errorf("core: Check inside an open move")
	}
	if err := o.P.Validate(); err != nil {
		return err
	}
	if err := o.P.ValidateNetBoxes(); err != nil {
		return err
	}
	if err := o.F.CheckConsistent(o.Rts); err != nil {
		return err
	}

	g, d := 0, 0
	for id := range o.Rts {
		if !o.Rts[id].Global {
			g++
		}
		if !o.Rts[id].DetailDone() {
			d++
		}
	}
	if g != o.g || d != o.d {
		return fmt.Errorf("core: counters drifted: G=%d (recount %d), D=%d (recount %d)", o.g, g, o.d, d)
	}

	if err := o.F.CheckFreeSets(); err != nil {
		return err
	}
	if err := o.checkUnrouted(); err != nil {
		return err
	}
	if err := o.checkWatches(); err != nil {
		return err
	}

	// Route geometry must be what the global router derives from the current
	// pin positions.
	var scratch []fabric.ChanAssign
	for id := range o.Rts {
		var err error
		if scratch, err = groute.CheckRoute(o.P, int32(id), &o.Rts[id], scratch); err != nil {
			return fmt.Errorf("core: net %d: %w", id, err)
		}
	}

	// Timing: rebuild from scratch and compare. In wirability-only mode the
	// timing view is not maintained move-to-move, so there is nothing to
	// cross-check.
	if !o.timingOn() {
		return nil
	}
	ref, err := timing.NewAnalyzer(o.NL)
	if err != nil {
		return err
	}
	err = ref.Fill(func(id int32) ([]float64, error) {
		want, err := o.netDelays(id)
		if err != nil {
			return nil, fmt.Errorf("core: net %d: %w", id, err)
		}
		got := o.An.NetDelay(id)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-6 {
				return nil, fmt.Errorf("core: net %d sink %d delay cache %v, recompute %v", id, i, got[i], want[i])
			}
		}
		return want, nil
	})
	if err != nil {
		return err
	}
	for c := int32(0); c < int32(o.NL.NumCells()); c++ {
		if math.Abs(ref.Arrival(c)-o.An.Arrival(c)) > 1e-6 {
			return fmt.Errorf("core: cell %d arrival %v, recompute %v", c, o.An.Arrival(c), ref.Arrival(c))
		}
	}
	if math.Abs(ref.WCD()-o.An.WCD()) > 1e-6 {
		return fmt.Errorf("core: WCD %v, recompute %v", o.An.WCD(), ref.WCD())
	}

	// Criticality term: the incrementally maintained per-net max delays and
	// the weighted sum must agree with a from-scratch recomputation over the
	// analyzer's committed delays.
	if o.critOn() {
		crit := o.crit.Values()
		sum := 0.0
		for id := range o.Rts {
			m := 0.0
			for _, v := range o.An.NetDelay(int32(id)) {
				if v > m {
					m = v
				}
			}
			if math.Abs(m-o.netMaxD[id]) > 1e-9 {
				return fmt.Errorf("core: net %d max delay cache %v, recompute %v", id, o.netMaxD[id], m)
			}
			sum += crit[id] * m
		}
		if math.Abs(sum-o.critSum) > 1e-6*(1+math.Abs(sum)) {
			return fmt.Errorf("core: critSum %v, recompute %v", o.critSum, sum)
		}
	}
	return nil
}

// checkUnrouted verifies the unrouted list: it holds exactly the nets lacking
// a complete detailed route, each once and keyed by its current EstLength,
// in strict cascade order. None of them can route now, by mayRoute or by an
// exhaustive scan: the cascade tests each unrouted net at its turn and
// afterwards only allocates, so a net it leaves unrouted stays unroutable
// until something is freed.
func (o *Optimizer) checkUnrouted() error {
	listed := make([]bool, len(o.Rts))
	for k, id := range o.unrouted {
		if id < 0 || int(id) >= len(o.Rts) {
			return fmt.Errorf("core: unrouted list entry %d names net %d of %d", k, id, len(o.Rts))
		}
		if listed[id] {
			return fmt.Errorf("core: net %d is in the unrouted list twice", id)
		}
		listed[id] = true
		if o.Rts[id].DetailDone() {
			return fmt.Errorf("core: net %d is in the unrouted list but fully routed", id)
		}
		if want := o.P.EstLength(id); o.estLen[id] != want {
			return fmt.Errorf("core: net %d is listed under length %v, its length is %v", id, o.estLen[id], want)
		}
		if k > 0 && !o.before(o.unrouted[k-1], id) {
			return fmt.Errorf("core: unrouted list entries %d (net %d) and %d (net %d) are out of order",
				k-1, o.unrouted[k-1], k, id)
		}
		if o.mayRoute(id) || o.scanRoutable(id) {
			return fmt.Errorf("core: net %d is unrouted but can route now (mayRoute %v, scan %v)",
				id, o.mayRoute(id), o.scanRoutable(id))
		}
	}
	for id := range o.Rts {
		if !listed[id] && !o.Rts[id].DetailDone() {
			return fmt.Errorf("core: net %d lacks a detailed route but is not in the unrouted list", id)
		}
	}
	return nil
}

// scanRoutable is mayRoute by exhaustive scan of the ownership tables: every
// (column, vtrack) for a net without a global route, every track of every
// missing channel otherwise.
func (o *Optimizer) scanRoutable(id int32) bool {
	r := &o.Rts[id]
	if !r.Global {
		box := o.P.NetBox(id)
		if len(o.NL.Nets[id].Sinks) == 0 || box.ChLo == box.ChHi {
			return true
		}
		vLo, vHi := o.A.VSegRange(box.ChLo, box.ChHi)
		for col := 0; col < o.A.Cols; col++ {
			for vt := 0; vt < o.A.VTracks; vt++ {
				if o.F.VRangeFree(col, vt, vLo, vHi) {
					return true
				}
			}
		}
		return false
	}
	for i := range r.Chans {
		ca := &r.Chans[i]
		if ca.Routed() {
			continue
		}
		for t := 0; t < o.A.Tracks; t++ {
			sl, sh := o.A.SegRange(t, ca.Lo, ca.Hi)
			if o.F.HRangeFree(ca.Ch, t, sl, sh) {
				return true
			}
		}
	}
	return false
}

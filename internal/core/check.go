package core

import (
	"fmt"
	"math"

	"repro/internal/droute"
	"repro/internal/timing"
)

// Check verifies every cross-structure invariant of the optimizer state from
// scratch: placement legality, fabric/route consistency, the G and D
// counters, the skip rule for stuck nets, route geometry against current pin
// positions, and the incremental timing view against a full recomputation.
// Tests call it after move bursts; it is far too slow for the inner loop.
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

	// The skip rule: an unrouted net whose stamp mayRoute rejects must really
	// be unroutable now, or the cascade would have missed a route.
	for id := range o.Rts {
		r := &o.Rts[id]
		if r.DetailDone() || o.mayRoute(int32(id)) {
			continue
		}
		if r.Global {
			for i := range r.Chans {
				ca := &r.Chans[i]
				if ca.Routed() {
					continue
				}
				if _, _, _, ok := droute.PickTrack(o.F, ca.Ch, ca.Lo, ca.Hi, o.cfg.DrouteCost); ok {
					return fmt.Errorf("core: net %d is skipped (stamp %d) but channel %d can route", id, o.failAt[id], ca.Ch)
				}
			}
			continue
		}
		box := o.P.NetBox(int32(id))
		vLo, vHi := o.A.VSegRange(box.ChLo, box.ChHi)
		for col := 0; col < o.A.Cols; col++ {
			for vt := 0; vt < o.A.VTracks; vt++ {
				if o.F.VRangeFree(col, vt, vLo, vHi) {
					return fmt.Errorf("core: net %d is skipped (stamp %d) but column %d vtrack %d is free", id, o.failAt[id], col, vt)
				}
			}
		}
	}

	// Route geometry must match current pin positions.
	for id := range o.Rts {
		r := &o.Rts[id]
		net := &o.NL.Nets[id]
		if !r.Global || len(net.Sinks) == 0 {
			continue
		}
		covers := func(ch, col int) bool {
			for i := range r.Chans {
				ca := &r.Chans[i]
				if ca.Ch == ch && ca.Lo <= col && col <= ca.Hi {
					return true
				}
			}
			return false
		}
		ch, col := o.P.PinPos(net.Driver)
		if !covers(ch, col) {
			return fmt.Errorf("core: net %d driver pin (%d,%d) outside route intervals", id, ch, col)
		}
		for _, s := range net.Sinks {
			ch, col = o.P.PinPos(s)
			if !covers(ch, col) {
				return fmt.Errorf("core: net %d sink pin (%d,%d) outside route intervals", id, ch, col)
			}
		}
		if r.HasTrunk {
			for i := range r.Chans {
				ca := &r.Chans[i]
				if ca.Lo > r.TrunkCol || r.TrunkCol > ca.Hi {
					return fmt.Errorf("core: net %d channel %d interval misses trunk column", id, ca.Ch)
				}
			}
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
	ref.Begin()
	for id := range o.Rts {
		if len(o.NL.Nets[id].Sinks) == 0 {
			continue
		}
		want, err := o.netDelays(int32(id))
		if err != nil {
			return fmt.Errorf("core: net %d: %w", id, err)
		}
		got := o.An.NetDelay(int32(id))
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-6 {
				ref.Commit()
				return fmt.Errorf("core: net %d sink %d delay cache %v, recompute %v", id, i, got[i], want[i])
			}
		}
		ref.SetNetDelays(int32(id), want)
	}
	ref.Propagate()
	ref.Commit()
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

// Package timing implements the delay machinery of the paper (§3.5): a
// detailed Elmore RC-tree model for physically embedded nets that accounts
// for every programmed antifuse and segment the route uses, a crude
// spatial-extent estimator for nets that are not yet embedded, one-time
// levelization, full and incremental (level-ordered frontier) worst-case
// arrival propagation with journaled undo, and a post-layout check (Verify)
// standing in for the RICE AWE evaluator used in the paper's experiments.
// Verify re-runs this file's Elmore model with wire capacitance raised 10%,
// so it is not independent of it.
package timing

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/layout"
)

type tapKind uint8

const (
	driverTap tapKind = iota
	sinkTap
	trunkTap
)

// tap is a connection point on a horizontal run.
type tap struct {
	col  int
	kind tapKind
	sink int // sink index for sinkTap, else -1
}

// sortTapsByCol orders a channel's taps by column with a stable insertion
// sort. A channel holds a handful of taps, and unlike sort.SliceStable this
// allocates nothing; stability makes it produce the identical ordering for
// equal columns.
func sortTapsByCol(ts []tap) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].col < ts[j-1].col; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// DelayCalc computes per-net Elmore delays while reusing all intermediate
// storage across calls — the allocation-free fast path for the annealer's
// inner loop. The slice returned by NetDelays is valid until the next call.
type DelayCalc struct {
	// Dense per-channel tap scratch. tapsByCh is indexed by channel and only
	// the channels in touched carry state; resetting walks touched instead of
	// the whole fabric. (These were maps before, but clearing a map and
	// re-appending from nil allocates on every call — this is the annealer's
	// per-move path.)
	tapsByCh [][]tap
	touched  []int

	runs   []run
	vruns  []int     // indices into runs in ascending channel: the trunk's nodes
	bounds []int     // segment boundaries inside the run being laid out
	down   []float64 // per tap node of every run: capacitance, then downstream capacitance
	rl     []float64 // per tap node: resistance to the node left of it in its run
	vdown  []float64 // per trunk node, as down
	vrl    []float64 // per trunk node: resistance to the node below it
	out    []float64

	est []float64 // Delays' estimate buffer
}

// run is one channel's horizontal run of a net: its taps sorted by column,
// which are the RC nodes down[base:base+len(ts)], and the indices in ts of
// its entry tap (the driver tap in the driver's channel, the trunk tap
// elsewhere) and of its trunk tap (-1 without a trunk).
type run struct {
	ts           []tap
	base         int
	entry, trunk int
}

// Delays returns the in-loop model's per-sink delays for net id: Elmore at
// wire load 1.0 once r is completely detail-routed, the spatial estimate
// otherwise (also when r is nil). The slice is valid until the next call.
func (dc *DelayCalc) Delays(p *layout.Placement, id int32, r *fabric.NetRoute) ([]float64, error) {
	if r != nil && r.DetailDone() {
		return dc.NetDelays(p, id, r, 1.0)
	}
	dc.est = AppendEstimateDelays(dc.est[:0], p, id)
	return dc.est, nil
}

// addTap records a tap in the dense per-channel scratch, tracking first
// touches so the next call can reset only what this one used.
func (dc *DelayCalc) addTap(ch int, tp tap) {
	if len(dc.tapsByCh[ch]) == 0 {
		dc.touched = append(dc.touched, ch)
	}
	dc.tapsByCh[ch] = append(dc.tapsByCh[ch], tp)
}

func resizeFloats(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

// span returns the length of columns (or channels) [x0, x1] and the number
// of the given boundaries b with x0 < b <= x1: the antifuses crossed.
func span(bounds []int, x0, x1 int) (wire float64, nb int) {
	for _, b := range bounds {
		if b > x0 && b <= x1 {
			nb++
		}
	}
	return float64(x1 - x0), nb
}

// NetDelays computes the Elmore delay from the net's driver to each sink of
// a completely detail-routed net, using the exact segments and antifuses the
// route occupies. The returned slice is indexed like Nets[id].Sinks; a sink
// in a channel the route does not cover reads 0.
//
// The model: the driver resistance feeds a cross antifuse onto the horizontal
// run in the driver's channel. Each horizontal run is an RC line over the
// full allocated segment span, with a programmed antifuse (RAntifuse,
// CAntifuse) at every internal segment boundary. A multi-channel net's runs
// are joined by the vertical trunk — an RC line with antifuses at vertical
// segment boundaries — tapped into each run through an antifuse. Sinks hang
// off their run through a cross antifuse plus pin load. Each wire's
// capacitance is split evenly between its ends.
//
// wireLoad scales wire capacitance: the in-loop model uses 1.0, Verify
// VerifyWireLoad. r.Chans must name each channel once, as groute derives it.
//
// The RC network is a tree rooted at the driver, evaluated in place. Each
// run's downstream capacitances are accumulated from both of its ends
// towards its entry tap, and the trunk's from both of its ends towards the
// driver's channel; the delays then go back outward. Every sum is taken in
// the order of the graph walk that this evaluator replaced, so the results
// are the same bits: a node's capacitance takes its left wire half, its
// right wire half, its overhang, its cross antifuse and last its trunk
// antifuse half, and its downstream capacitance adds its children's in the
// order their edges were built. Each product that feeds a sum is rounded
// first (float64(...)), so no compiler fuses it into a multiply-add.
func (dc *DelayCalc) NetDelays(p *layout.Placement, id int32, r *fabric.NetRoute, wireLoad float64) ([]float64, error) {
	if !r.DetailDone() {
		return nil, fmt.Errorf("timing: net %d is not completely routed", id)
	}
	net := &p.NL.Nets[id]
	if len(net.Sinks) == 0 {
		return nil, nil
	}
	a := p.A
	rc := a.RC

	// Gather taps per channel, resetting only the channels touched last call.
	for len(dc.tapsByCh) < a.Channels() {
		dc.tapsByCh = append(dc.tapsByCh, nil)
	}
	for _, ch := range dc.touched {
		dc.tapsByCh[ch] = dc.tapsByCh[ch][:0]
	}
	dc.touched = dc.touched[:0]
	drvCh, drvCol := p.PinPos(net.Driver)
	dc.addTap(drvCh, tap{col: drvCol, kind: driverTap, sink: -1})
	for si, s := range net.Sinks {
		ch, col := p.PinPos(s)
		dc.addTap(ch, tap{col: col, kind: sinkTap, sink: si})
	}
	if r.HasTrunk {
		for i := range r.Chans {
			dc.addTap(r.Chans[i].Ch, tap{col: r.TrunkCol, kind: trunkTap, sink: -1})
		}
	}

	// One run per channel; the driver's run is runs[drv].
	runs := dc.runs[:0]
	n, drv := 0, -1
	for i := range r.Chans {
		ch := r.Chans[i].Ch
		ts := dc.tapsByCh[ch]
		if len(ts) == 0 {
			return nil, fmt.Errorf("timing: net %d routed channel %d has no taps", id, ch)
		}
		sortTapsByCol(ts)
		ru := run{ts: ts, base: n, entry: -1, trunk: -1}
		for j, tp := range ts {
			switch tp.kind {
			case driverTap:
				ru.entry, drv = j, i
			case trunkTap:
				ru.trunk = j
			}
		}
		if ru.entry < 0 {
			ru.entry = ru.trunk
		}
		runs = append(runs, ru)
		n += len(ts)
	}
	dc.runs = runs
	if drv < 0 {
		return nil, fmt.Errorf("timing: net %d driver channel %d not covered by route", id, drvCh)
	}
	if !r.HasTrunk && len(runs) > 1 {
		// Counted as the graph walk counts: the source, every tap and every
		// sink pin node; only the driver's run is reached.
		nodes, reached := 1, 1
		for i := range runs {
			k := len(runs[i].ts)
			for _, tp := range runs[i].ts {
				if tp.kind == sinkTap {
					k++
				}
			}
			nodes += k
			if i == drv {
				reached += k
			}
		}
		return nil, fmt.Errorf("timing: RC network is disconnected (%d of %d nodes reached)", reached, nodes)
	}

	down := resizeFloats(&dc.down, n)
	resizeFloats(&dc.rl, n)
	for i := range runs {
		dc.layRun(a, &r.Chans[i], &runs[i], wireLoad, r.HasTrunk)
	}
	pin := rc.CCross + rc.CPin // a sink pin node's capacitance
	var vd float64             // downstream capacitance of the driver channel's trunk node
	dv := 0                    // its index in vruns
	if r.HasTrunk {
		dv = dc.layTrunk(a, r, drv, wireLoad)
		vdown := dc.vdown
		for i, ri := range dc.vruns {
			if i != dv {
				dc.runDown(&runs[ri], pin, 0)
				vdown[i] += down[runs[ri].base+runs[ri].entry]
			}
		}
		for i := 1; i < dv; i++ {
			vdown[i] += vdown[i-1]
		}
		for i := len(vdown) - 2; i > dv; i-- {
			vdown[i] += vdown[i+1]
		}
		if dv > 0 {
			vdown[dv] += vdown[dv-1]
		}
		if dv < len(vdown)-1 {
			vdown[dv] += vdown[dv+1]
		}
		vd = vdown[dv]
	}
	dr := &runs[drv]
	dc.runDown(dr, pin, vd)

	out := resizeFloats(&dc.out, len(net.Sinks))
	clear(out)
	pinDelay := float64(rc.RCross * pin)
	td := dc.runDelays(dr, float64((rc.RDriver+rc.RCross)*down[dr.base+dr.entry]), pinDelay, out)
	if r.HasTrunk {
		// Outward along the trunk, below the driver's channel and then
		// above it; the resistance between two trunk nodes sits at the
		// upper one's index.
		vdown, vrl := dc.vdown, dc.vrl
		dd := td + float64(rc.RAntifuse*vdown[dv])
		for _, step := range [2]int{-1, 1} {
			d := dd
			for i := dv + step; i >= 0 && i < len(vdown); i += step {
				d += float64(vrl[max(i, i-step)] * vdown[i])
				ru := &runs[dc.vruns[i]]
				dc.runDelays(ru, d+float64(rc.RAntifuse*down[ru.base+ru.entry]), pinDelay, out)
			}
		}
	}
	return out, nil
}

// layRun writes run ru's node capacitances into dc.down and the resistances
// between its neighbouring taps into dc.rl. ca is the run's channel entry.
func (dc *DelayCalc) layRun(a *arch.Arch, ca *fabric.ChanAssign, ru *run, wireLoad float64, trunk bool) {
	rc := &a.RC
	segs := a.Seg[ca.Track]
	bounds := dc.bounds[:0]
	for s := ca.SegLo; s < ca.SegHi; s++ {
		bounds = append(bounds, segs[s].End)
	}
	dc.bounds = bounds
	ts := ru.ts
	k := len(ts)
	c := dc.down[ru.base : ru.base+k]
	rl := dc.rl[ru.base : ru.base+k]
	clear(c)
	for j := 1; j < k; j++ {
		wire, nb := span(bounds, ts[j-1].col, ts[j].col)
		rl[j] = float64(rc.RUnit*wire) + float64(rc.RAntifuse*float64(nb))
		h := float64((float64(wireLoad*rc.CUnit*wire) + float64(rc.CAntifuse*float64(nb))) / 2)
		c[j-1] += h
		c[j] += h
	}
	// Overhang: allocated-but-unused segment length still loads the net.
	w, nb := span(bounds, segs[ca.SegLo].Start, ts[0].col)
	c[0] += float64(wireLoad*rc.CUnit*w) + float64(rc.CAntifuse*float64(nb))
	w, nb = span(bounds, ts[k-1].col, segs[ca.SegHi].End)
	c[k-1] += float64(wireLoad*rc.CUnit*w) + float64(rc.CAntifuse*float64(nb))
	for j, tp := range ts {
		if tp.kind == driverTap {
			c[j] += rc.CCross
		}
	}
	if trunk {
		c[ru.trunk] += float64(rc.CAntifuse / 2)
	}
}

// layTrunk orders the runs by channel into dc.vruns, one trunk node each,
// writes the trunk nodes' capacitances into dc.vdown and the resistances
// between neighbouring ones into dc.vrl, and returns the index of the
// driver's run drv in dc.vruns.
func (dc *DelayCalc) layTrunk(a *arch.Arch, r *fabric.NetRoute, drv int, wireLoad float64) int {
	rc := &a.RC
	vr := dc.vruns[:0]
	for i := range r.Chans {
		j := len(vr)
		vr = append(vr, i)
		for ; j > 0 && r.Chans[vr[j-1]].Ch > r.Chans[i].Ch; j-- {
			vr[j] = vr[j-1]
		}
		vr[j] = i
	}
	dc.vruns = vr
	bounds := dc.bounds[:0]
	for s := r.VLo; s < r.VHi; s++ {
		bounds = append(bounds, (s+1)*a.VSpan)
	}
	dc.bounds = bounds
	m := len(vr)
	c := resizeFloats(&dc.vdown, m)
	rl := resizeFloats(&dc.vrl, m)
	dv := 0
	for i, ri := range vr {
		if ri == drv {
			dv = i
		}
		c[i] = rc.CAntifuse / 2
		if i > 0 {
			wire, nb := span(bounds, r.Chans[vr[i-1]].Ch, r.Chans[ri].Ch)
			rl[i] = float64(rc.RVUnit*wire) + float64(rc.RAntifuse*float64(nb))
			h := float64((float64(wireLoad*rc.CVUnit*wire) + float64(rc.CAntifuse*float64(nb))) / 2)
			c[i-1] += h
			c[i] += h
		}
	}
	// Vertical overhang beyond the extreme tapped channels.
	lo, hi := r.VLo*a.VSpan, min((r.VHi+1)*a.VSpan-1, a.Channels()-1)
	w, nb := span(bounds, lo, r.Chans[vr[0]].Ch)
	c[0] += float64(wireLoad*rc.CVUnit*w) + float64(rc.CAntifuse*float64(nb))
	w, nb = span(bounds, r.Chans[vr[m-1]].Ch, hi)
	c[m-1] += float64(wireLoad*rc.CVUnit*w) + float64(rc.CAntifuse*float64(nb))
	return dv
}

// runDown turns run ru's node capacitances into downstream capacitances,
// from both ends towards its entry tap. pin is a sink pin node's
// capacitance and vd what hangs below the run's trunk tap when that is not
// its entry.
func (dc *DelayCalc) runDown(ru *run, pin, vd float64) {
	ts := ru.ts
	c := dc.down[ru.base : ru.base+len(ts)]
	below := func(j int) {
		switch ts[j].kind {
		case sinkTap:
			c[j] += pin
		case trunkTap:
			c[j] += vd
		}
	}
	e, last := ru.entry, len(ts)-1
	for j := 0; j < e; j++ {
		if j > 0 {
			c[j] += c[j-1]
		}
		below(j)
	}
	for j := last; j > e; j-- {
		if j < last {
			c[j] += c[j+1]
		}
		below(j)
	}
	if e > 0 {
		c[e] += c[e-1]
	}
	if e < last {
		c[e] += c[e+1]
	}
}

// runDelays spreads delays outward from run ru's entry tap, whose delay is
// d0, writes each sink's delay (its tap's plus pinDelay) into out, and
// returns the delay at the run's trunk tap.
func (dc *DelayCalc) runDelays(ru *run, d0, pinDelay float64, out []float64) (trunk float64) {
	ts := ru.ts
	c := dc.down[ru.base : ru.base+len(ts)]
	rl := dc.rl[ru.base : ru.base+len(ts)]
	visit := func(j int, d float64) {
		switch ts[j].kind {
		case sinkTap:
			out[ts[j].sink] = d + pinDelay
		case trunkTap:
			trunk = d
		}
	}
	e := ru.entry
	visit(e, d0)
	d := d0
	for j := e - 1; j >= 0; j-- {
		d += float64(rl[j+1] * c[j])
		visit(j, d)
	}
	d = d0
	for j := e + 1; j < len(ts); j++ {
		d += float64(rl[j] * c[j])
		visit(j, d)
	}
	return trunk
}

package timing

import (
	"math"
	"sort"

	"repro/internal/netlist"
)

// SlackReport carries the results of a required-time analysis against a
// delay target.
type SlackReport struct {
	Target float64   // the required time used (usually the WCD itself)
	Slack  []float64 // per cell: required output time minus arrival
}

// Slacks runs a backward required-time propagation against target (pass the
// current WCD to measure each cell's margin relative to the critical path;
// cells on it get slack 0). Cells whose output reaches no timing sink get
// +Inf slack.
func (t *Analyzer) Slacks(target float64) SlackReport {
	n := len(t.nl.Cells)
	reqOut := make([]float64, n)
	t.requiredInto(reqOut, target)
	rep := SlackReport{Target: target, Slack: make([]float64, n)}
	for i := range rep.Slack {
		rep.Slack[i] = reqOut[i] - t.arr[i]
	}
	return rep
}

// requiredInto fills reqOut (one entry per cell) with required output times
// against target via a backward pass in reverse level order. Cells whose
// output reaches no timing sink get +Inf. Allocation-free; shared by Slacks,
// NetCriticality and the damped Criticality extractor.
func (t *Analyzer) requiredInto(reqOut []float64, target float64) {
	for i := range reqOut {
		reqOut[i] = math.Inf(1)
	}
	// Walk cells in reverse level order; boundary sink pins require target.
	g := t.g
	for i := len(reqOut) - 1; i >= 0; i-- {
		cell := g.order[i]
		// Required at this cell's input pins.
		var reqIn float64
		if g.endpoint[cell] {
			reqIn = target
		} else {
			if math.IsInf(reqOut[cell], 1) {
				continue
			}
			reqIn = reqOut[cell] - g.delay[cell]
		}
		for _, e := range g.faninOf(cell) {
			if r := reqIn - t.delays[e.slot]; r < reqOut[e.drv] {
				reqOut[e.drv] = r
			}
		}
	}
}

// NetCriticality returns, per net, 1 - slack/target clamped to [0,1]: 1 for
// nets on the critical path, approaching 0 for timing-irrelevant nets. The
// slack of a net is the minimum over its sink pins of
// required(pin) - arrival(pin).
func (t *Analyzer) NetCriticality(target float64) []float64 {
	out := make([]float64, t.nl.NumNets())
	reqOut := make([]float64, len(t.nl.Cells))
	t.netCriticalityInto(out, reqOut, target)
	return out
}

// netCriticalityInto is the allocation-free core of NetCriticality: out gets
// one criticality per net, reqOut is per-cell scratch (both must be sized by
// the caller).
func (t *Analyzer) netCriticalityInto(out, reqOut []float64, target float64) {
	t.requiredInto(reqOut, target)
	g := t.g
	for i := range t.nl.Nets {
		n := &t.nl.Nets[i]
		drvArr := t.arr[n.Driver.Cell]
		minSlack := math.Inf(1)
		for si, s := range n.Sinks {
			// required at pin = required at cell output - cell delay for
			// comb; = target for boundary sinks.
			reqIn := target
			if !g.endpoint[s.Cell] {
				reqIn = reqOut[s.Cell] - g.delay[s.Cell]
			}
			arrAtPin := drvArr + t.delays[g.netOff[i]+int32(si)]
			if sl := reqIn - arrAtPin; sl < minSlack {
				minSlack = sl
			}
		}
		if math.IsInf(minSlack, 1) || target <= 0 {
			out[i] = 0
			continue
		}
		crit := 1 - minSlack/target
		if crit < 0 {
			crit = 0
		}
		if crit > 1 {
			crit = 1
		}
		out[i] = crit
	}
}

// Path is one register-to-register (or pad-to-pad) timing path.
type Path struct {
	Cells   []int32 // source first
	Arrival float64 // arrival at the terminating sink pin
}

// TopPaths returns up to k paths, worst first, one per distinct terminating
// sink pin (the classic per-endpoint view of critical paths). Ties on the
// arrival time break on (cell, pin), so the returned path set is a strict
// total order — identical on every machine and GOMAXPROCS setting.
func (t *Analyzer) TopPaths(k int) []Path {
	type endpoint struct {
		pin netlist.PinRef
		arr float64
		idx int // into sinkPins
	}
	eps := make([]endpoint, 0, len(t.g.sinkPins))
	for i, p := range t.g.sinkPins {
		eps = append(eps, endpoint{pin: p, arr: t.edgeArr(t.g.sinkEdges[i]), idx: i})
	}
	sort.Slice(eps, func(i, j int) bool {
		if eps[i].arr != eps[j].arr {
			return eps[i].arr > eps[j].arr
		}
		if eps[i].pin.Cell != eps[j].pin.Cell {
			return eps[i].pin.Cell < eps[j].pin.Cell
		}
		return eps[i].pin.Pin < eps[j].pin.Pin
	})
	if k > len(eps) {
		k = len(eps)
	}
	out := make([]Path, 0, k)
	for _, ep := range eps[:k] {
		out = append(out, Path{Cells: t.traceBack(ep.idx), Arrival: ep.arr})
	}
	return out
}

// traceBack walks upstream from the i'th timing sink pin along worst-arrival
// inputs (the first strict maximum in pin order) and returns the path, source
// first.
func (t *Analyzer) traceBack(i int) []int32 {
	g := t.g
	rev := []int32{g.sinkPins[i].Cell}
	cell := g.sinkEdges[i].drv
	for {
		rev = append(rev, cell)
		if g.source[cell] {
			break
		}
		best := int32(-1)
		bv := math.Inf(-1)
		for _, e := range g.faninOf(cell) {
			if v := t.edgeArr(e); v > bv {
				bv = v
				best = e.drv
			}
		}
		if best < 0 {
			break
		}
		cell = best
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

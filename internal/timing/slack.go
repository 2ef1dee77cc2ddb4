package timing

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/netlist"
)

// requiredInto fills reqOut (one entry per cell) with required output times
// against target via a backward pass in reverse level order. Cells whose
// output reaches no timing sink get +Inf. Allocation-free; shared by
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
		var p EdgePath
		t.traceBack(ep.idx, &p)
		out = append(out, Path{Cells: p.Cells, Arrival: ep.arr})
	}
	return out
}

// traceBack walks upstream from the i'th timing sink pin along worst-arrival
// inputs (the first strict maximum in pin order) and sets p to the path,
// source first, reusing p's storage.
func (t *Analyzer) traceBack(i int, p *EdgePath) {
	g := t.g
	p.Cells = append(p.Cells[:0], g.sinkPins[i].Cell)
	p.Slots = append(p.Slots[:0], g.sinkEdges[i].slot)
	cell := g.sinkEdges[i].drv
	for {
		p.Cells = append(p.Cells, cell)
		if g.source[cell] {
			break
		}
		best := edge{drv: -1}
		bv := math.Inf(-1)
		for _, e := range g.faninOf(cell) {
			if v := t.edgeArr(e); v > bv {
				bv = v
				best = e
			}
		}
		if best.drv < 0 {
			break
		}
		p.Slots = append(p.Slots, best.slot)
		cell = best.drv
	}
	slices.Reverse(p.Cells)
	slices.Reverse(p.Slots)
}

// EdgePath is a timing path with the arcs it follows: Cells runs from a
// source (or a cell without inputs) to the cell of the timing sink pin it
// ends at, and Slots[i] is the delay slot of the arc from Cells[i] into
// Cells[i+1], which belongs to Cells[i]'s output net.
type EdgePath struct {
	Cells []int32
	Slots []int32
}

// TraceCritical sets p to the critical path, the one CriticalPath returns,
// reusing p's storage. A netlist without timing sink pins gives an empty
// path.
func (t *Analyzer) TraceCritical(p *EdgePath) {
	if i := t.worstSink(); i >= 0 {
		t.traceBack(i, p)
		return
	}
	p.Cells, p.Slots = p.Cells[:0], p.Slots[:0]
}

// PathBound returns p's length under the current net delays: the arrival at
// its sink pin when every cell on it takes its arrival from the path's arc,
// added in Propagate's order (arc delay onto the driver's arrival, then the
// cell's own delay). Each step adds the operands faninArr adds, with the
// path's arc in place of the worst one, and rounding is monotone, so once
// the current delays are propagated the WCD is at least PathBound. For the
// path TraceCritical returns, PathBound equals the WCD it was traced at until
// a delay on the path changes. An empty path gives 0.
func (t *Analyzer) PathBound(p *EdgePath) float64 {
	if len(p.Cells) == 0 {
		return 0
	}
	g := t.g
	a := g.delay[p.Cells[0]]
	last := len(p.Slots) - 1
	for i, s := range p.Slots {
		a += t.delays[s]
		if i < last {
			a += g.delay[p.Cells[i+1]]
		}
	}
	return a
}

// CheckPath reports whether p is a path PathBound may take: it starts at a
// source or a cell without inputs, every arc is a fanin arc of the next cell
// from the cell before it, every cell between the ends is not a source, and
// the last arc enters a timing sink pin.
func (t *Analyzer) CheckPath(p *EdgePath) error {
	g := t.g
	if len(p.Cells) == 0 && len(p.Slots) == 0 {
		return nil
	}
	if len(p.Cells) != len(p.Slots)+1 || len(p.Slots) == 0 {
		return fmt.Errorf("timing: path of %d cells has %d arcs", len(p.Cells), len(p.Slots))
	}
	if c := p.Cells[0]; !g.source[c] && len(g.faninOf(c)) > 0 {
		return fmt.Errorf("timing: path starts at cell %d, neither a source nor without inputs", c)
	}
	for i, s := range p.Slots {
		to := p.Cells[i+1]
		if i+1 < len(p.Slots) && g.source[to] {
			return fmt.Errorf("timing: path passes through source cell %d", to)
		}
		if !slices.Contains(g.faninOf(to), edge{drv: p.Cells[i], slot: s}) {
			return fmt.Errorf("timing: path arc %d (slot %d) is no arc from cell %d into cell %d", i, s, p.Cells[i], to)
		}
	}
	if end := p.Cells[len(p.Cells)-1]; !g.endpoint[end] {
		return fmt.Errorf("timing: path ends at cell %d, which ends no timing path", end)
	}
	return nil
}

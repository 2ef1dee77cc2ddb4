package timing

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/netlist"
)

// Analyzer maintains worst-case arrival times over an evolving layout. Cells
// are levelized once (levels depend only on connectivity); after that, net
// delay changes are propagated incrementally through a level-ordered frontier
// (paper §3.5) with journaled undo so the annealer can reject moves cheaply.
//
// Usage per move: Begin, then SetNetDelays for every affected net, then
// Propagate to get the new worst-case delay; finally Commit or Revert.
type Analyzer struct {
	nl *netlist.Netlist
	g  *graph // immutable, shared by clones

	arr    []float64 // per cell: output arrival time
	delays []float64 // every net's per-sink interconnect delays, see graph.netOff
	wcd    float64
	stats  metrics.Work // STAUpdates and STACellsRelaxed; see Stats

	// Move journal.
	inMove    bool
	jCells    []int32
	jOldArr   []float64
	jNets     []int32
	jOldDelay []float64 // old delays of jNets, concatenated in journal order
	jOldWCD   float64
	stamp     []uint32 // per cell: epoch when journaled
	netStamp  []uint32 // per net: epoch when journaled
	epoch     uint32

	// Frontier: one bucket per level, laid out like graph.order. Level l's
	// queued cells are bucket[lvlOff[l]:tail[l]]; a cell is queued at most
	// once per sweep, so no bucket outgrows its level.
	bucket []int32
	tail   []int32
	lo, hi int32    // lowest and highest level queued this sweep
	sweep  uint32   // numbers the Propagate calls
	queued []uint32 // per cell: the sweep that last queued it
}

// graph is the analyzer's flat view of the netlist's timing graph, built once
// by NewAnalyzer. Fanin edges and fanout lists are in compressed sparse row
// form: cell c's entries are fanin[inOff[c]:inOff[c+1]] and
// fanout[outOff[c]:outOff[c+1]].
type graph struct {
	level  []int32 // per cell
	order  []int32 // cell ids sorted by level, for full recomputation
	lvlOff []int32 // level l's cells are order[lvlOff[l]:lvlOff[l+1]]

	inOff  []int32
	fanin  []edge // per cell, in input-pin order over connected pins
	outOff []int32
	fanout []int32 // per cell: the non-source sinks of its output net
	netOff []int32 // net n's sink delays are delays[netOff[n]:netOff[n+1]]

	delay    []float64 // per cell: intrinsic delay
	source   []bool    // per cell: Input or Seq (arrival is the intrinsic delay)
	endpoint []bool    // per cell: Output or Seq (inputs end timing paths)

	sinkPins  []netlist.PinRef // every connected endpoint input pin
	sinkEdges []edge           // parallel to sinkPins
}

// edge is one timing arc into a sink pin: the driving cell and the pin's slot
// in the analyzer's delay array.
type edge struct {
	drv, slot int32
}

// Stats returns the analyzer's cumulative work: the net-delay updates pushed
// in (STAUpdates) and the cell arrivals the frontier changed
// (STACellsRelaxed). Its router fields stay zero.
func (t *Analyzer) Stats() metrics.Work { return t.stats }

// NewAnalyzer levelizes the netlist and initializes all net delays to zero
// (arrivals then reflect pure logic depth until delays are supplied).
func NewAnalyzer(nl *netlist.Netlist) (*Analyzer, error) {
	level, err := nl.Levels()
	if err != nil {
		return nil, err
	}
	g := newGraph(nl, level)
	t := &Analyzer{
		nl:     nl,
		g:      g,
		arr:    make([]float64, nl.NumCells()),
		delays: make([]float64, g.netOff[len(g.netOff)-1]),
	}
	t.initScratch()
	t.Full()
	return t, nil
}

// initScratch allocates the journal stamps and the frontier.
func (t *Analyzer) initScratch() {
	n := len(t.arr)
	t.stamp = make([]uint32, n)
	t.netStamp = make([]uint32, len(t.g.netOff)-1)
	t.bucket = make([]int32, n)
	t.tail = append([]int32(nil), t.g.lvlOff[:len(t.g.lvlOff)-1]...)
	t.queued = make([]uint32, n)
}

// newGraph builds the flat timing graph for a levelized netlist.
func newGraph(nl *netlist.Netlist, level []int32) *graph {
	n := nl.NumCells()
	g := &graph{level: level}

	// Counting-sort cells by level.
	maxL := int32(0)
	for _, l := range level {
		maxL = max(maxL, l)
	}
	g.lvlOff = make([]int32, maxL+2)
	for _, l := range level {
		g.lvlOff[l+1]++
	}
	for l := 1; l < len(g.lvlOff); l++ {
		g.lvlOff[l] += g.lvlOff[l-1]
	}
	g.order = make([]int32, n)
	next := append([]int32(nil), g.lvlOff[:maxL+1]...)
	for i, l := range level {
		g.order[next[l]] = int32(i)
		next[l]++
	}

	// Delay slots, net by net in sink order; pinSlot maps each cell input pin
	// to its slot.
	g.netOff = make([]int32, nl.NumNets()+1)
	for i := range nl.Nets {
		g.netOff[i+1] = g.netOff[i] + int32(len(nl.Nets[i].Sinks))
	}
	pinOff := make([]int32, n+1)
	for i := range nl.Cells {
		pinOff[i+1] = pinOff[i] + int32(len(nl.Cells[i].In))
	}
	pinSlot := make([]int32, pinOff[n])
	for ni := range nl.Nets {
		for si, s := range nl.Nets[ni].Sinks {
			pinSlot[pinOff[s.Cell]+s.Pin-1] = g.netOff[ni] + int32(si)
		}
	}

	g.delay = make([]float64, n)
	g.source = make([]bool, n)
	g.endpoint = make([]bool, n)
	g.inOff = make([]int32, n+1)
	g.outOff = make([]int32, n+1)
	for i := range nl.Cells {
		c := &nl.Cells[i]
		g.delay[i] = c.Delay
		g.source[i] = c.Type == netlist.Input || c.Type == netlist.Seq
		g.endpoint[i] = c.Type == netlist.Output || c.Type == netlist.Seq
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		for pi, nid := range c.In {
			if nid < 0 {
				continue
			}
			e := edge{drv: nl.Nets[nid].Driver.Cell, slot: pinSlot[pinOff[i]+int32(pi)]}
			g.fanin = append(g.fanin, e)
			if g.endpoint[i] {
				g.sinkPins = append(g.sinkPins, netlist.PinRef{Cell: int32(i), Pin: int32(pi + 1)})
				g.sinkEdges = append(g.sinkEdges, e)
			}
		}
		g.inOff[i+1] = int32(len(g.fanin))
		if c.Out >= 0 {
			for _, s := range nl.Nets[c.Out].Sinks {
				if !g.source[s.Cell] {
					g.fanout = append(g.fanout, s.Cell)
				}
			}
		}
		g.outOff[i+1] = int32(len(g.fanout))
	}
	return g
}

// Clone returns a deep copy of the analyzer's committed state, sharing only
// the immutable netlist and timing graph. The clone starts with fresh journal
// and frontier scratch; cloning inside an open move is a programming error.
func (t *Analyzer) Clone() *Analyzer {
	if t.inMove {
		panic("timing: Clone inside an open move")
	}
	c := &Analyzer{
		nl:     t.nl,
		g:      t.g,
		arr:    append([]float64(nil), t.arr...),
		delays: append([]float64(nil), t.delays...),
		wcd:    t.wcd,
		stats:  t.stats,
	}
	c.initScratch()
	return c
}

// faninOf returns the cell's fanin edges.
func (g *graph) faninOf(cell int32) []edge { return g.fanin[g.inOff[cell]:g.inOff[cell+1]] }

// edgeArr returns the arrival time at the sink pin of edge e.
func (t *Analyzer) edgeArr(e edge) float64 { return t.arr[e.drv] + t.delays[e.slot] }

// faninArr evaluates a non-source cell's output arrival from current state.
func (t *Analyzer) faninArr(cell int32) float64 {
	m := 0.0
	for _, e := range t.g.faninOf(cell) {
		if v := t.edgeArr(e); v > m {
			m = v
		}
	}
	return m + t.g.delay[cell]
}

// scanWCD computes the worst arrival over all timing sink pins.
func (t *Analyzer) scanWCD() float64 {
	w := 0.0
	for _, e := range t.g.sinkEdges {
		if v := t.edgeArr(e); v > w {
			w = v
		}
	}
	return w
}

// Full recomputes every arrival from scratch in level order and refreshes the
// worst-case delay. Used at initialization and as the reference in tests.
func (t *Analyzer) Full() {
	for _, id := range t.g.order {
		if t.g.source[id] {
			t.arr[id] = t.g.delay[id]
		} else {
			t.arr[id] = t.faninArr(id)
		}
	}
	t.wcd = t.scanWCD()
}

// WCD returns the current worst-case (critical path) delay.
func (t *Analyzer) WCD() float64 { return t.wcd }

// Arrival returns the cell's current output arrival time.
func (t *Analyzer) Arrival(cell int32) float64 { return t.arr[cell] }

// NetDelay returns the current per-sink delay cache for a net. The slice is
// owned by the analyzer; callers must not mutate it.
func (t *Analyzer) NetDelay(id int32) []float64 {
	a, b := t.g.netOff[id], t.g.netOff[id+1]
	return t.delays[a:b:b]
}

// Begin opens a move journal. Nested moves are a programming error.
func (t *Analyzer) Begin() {
	if t.inMove {
		panic("timing: Begin inside an open move")
	}
	t.inMove = true
	t.epoch++
	t.jCells = t.jCells[:0]
	t.jOldArr = t.jOldArr[:0]
	t.jNets = t.jNets[:0]
	t.jOldDelay = t.jOldDelay[:0]
	t.jOldWCD = t.wcd
}

// SetNetDelays replaces a net's per-sink delays inside an open move,
// journaling the old values. d must have one entry per sink; it is copied.
func (t *Analyzer) SetNetDelays(id int32, d []float64) {
	if !t.inMove {
		panic("timing: SetNetDelays outside a move")
	}
	cur := t.NetDelay(id)
	if len(d) != len(cur) {
		panic(fmt.Sprintf("timing: net %d delay arity %d, want %d", id, len(d), len(cur)))
	}
	t.stats.STAUpdates++
	if t.netStamp[id] != t.epoch {
		t.netStamp[id] = t.epoch
		t.jNets = append(t.jNets, id)
		t.jOldDelay = append(t.jOldDelay, cur...)
	}
	copy(cur, d)
}

// Propagate pushes the consequences of all SetNetDelays calls in this move
// through the levelized frontier and returns the new worst-case delay. It may
// be called once per move, after all delay updates.
//
// The frontier is swept one level at a time in ascending order. Every cell a
// relaxed cell can enqueue sits on a strictly higher level (netlist.Levels),
// so a level's arrivals are final when the sweep reaches it, and each queued
// cell is evaluated once, from final inputs.
func (t *Analyzer) Propagate() float64 {
	if !t.inMove {
		panic("timing: Propagate outside a move")
	}
	t.sweep++
	g := t.g
	t.lo, t.hi = int32(len(t.tail)), -1
	for _, nid := range t.jNets {
		t.pushFanout(t.nl.Nets[nid].Driver.Cell)
	}
	for l := t.lo; l <= t.hi; l++ {
		queued := t.bucket[g.lvlOff[l]:t.tail[l]]
		t.tail[l] = g.lvlOff[l]
		for _, cell := range queued {
			nv := t.faninArr(cell)
			if nv == t.arr[cell] {
				continue
			}
			if t.stamp[cell] != t.epoch {
				t.stamp[cell] = t.epoch
				t.jCells = append(t.jCells, cell)
				t.jOldArr = append(t.jOldArr, t.arr[cell])
			}
			t.arr[cell] = nv
			t.stats.STACellsRelaxed++
			t.pushFanout(cell)
		}
	}
	t.wcd = t.scanWCD()
	return t.wcd
}

// pushFanout enqueues the cells whose arrival depends on cell's output,
// skipping those already queued this sweep.
func (t *Analyzer) pushFanout(cell int32) {
	g := t.g
	for _, s := range g.fanout[g.outOff[cell]:g.outOff[cell+1]] {
		if t.queued[s] == t.sweep {
			continue
		}
		t.queued[s] = t.sweep
		l := g.level[s]
		t.bucket[t.tail[l]] = s
		t.tail[l]++
		t.lo = min(t.lo, l)
		t.hi = max(t.hi, l)
	}
}

// Commit closes the move keeping the new state.
func (t *Analyzer) Commit() {
	if !t.inMove {
		panic("timing: Commit outside a move")
	}
	t.inMove = false
}

// Revert closes the move restoring every journaled arrival and net delay.
func (t *Analyzer) Revert() {
	if !t.inMove {
		panic("timing: Revert outside a move")
	}
	old := t.jOldDelay
	for _, id := range t.jNets {
		old = old[copy(t.NetDelay(id), old):]
	}
	for i, c := range t.jCells {
		t.arr[c] = t.jOldArr[i]
	}
	t.wcd = t.jOldWCD
	t.inMove = false
}

// Fill sets every net's delays from scratch in one move: delays(id) for each
// net with sinks, then Propagate and Commit. When delays fails, the move is
// reverted and its error returned.
func (t *Analyzer) Fill(delays func(id int32) ([]float64, error)) error {
	t.Begin()
	for id := range t.nl.Nets {
		if len(t.nl.Nets[id].Sinks) == 0 {
			continue
		}
		d, err := delays(int32(id))
		if err != nil {
			t.Revert()
			return err
		}
		t.SetNetDelays(int32(id), d)
	}
	t.Propagate()
	t.Commit()
	return nil
}

// CriticalPath traces back from the worst sink pin and returns the cells on
// the critical path, source first. The worst pin is the first strict maximum
// in sink-pin order.
func (t *Analyzer) CriticalPath() []int32 {
	if len(t.g.sinkEdges) == 0 {
		return nil
	}
	worst, wv := 0, t.edgeArr(t.g.sinkEdges[0])
	for i, e := range t.g.sinkEdges[1:] {
		if v := t.edgeArr(e); v > wv {
			worst, wv = i+1, v
		}
	}
	return t.traceBack(worst)
}

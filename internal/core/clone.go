package core

import (
	"slices"

	"repro/internal/anneal"
	"repro/internal/fabric"
	"repro/internal/timing"
)

// Clone returns a deep copy of the complete optimizer state: placement (cell
// slots and pinmaps), fabric ownership tables and free sets, every net's
// segment assignment, the unrouted list and its keys, the wake index (rebuilt
// from the list), the G/D/dc counters, the adaptive cost weights, and the
// incremental timing-analyzer state with the move bound's path. Clones share
// only immutable structures (the architecture, the netlist, the pinmap
// palette) and evolve fully independently afterwards — the parallel
// annealing engine relies on this to run chains on separate goroutines.
//
// The clone starts with fresh journal scratch and epoch counters; cloning
// inside an open move is a programming error and panics.
func (o *Optimizer) Clone() *Optimizer {
	if o.moveKind != moveNone {
		panic("core: Clone inside an open move")
	}
	c := &Optimizer{
		A:   o.A,
		NL:  o.NL,
		P:   o.P.Clone(),
		F:   o.F.Clone(),
		Rts: make([]fabric.NetRoute, len(o.Rts)),
		An:  o.An.Clone(),
		cfg: o.cfg,

		g:  o.g,
		d:  o.d,
		dc: o.dc,

		initRouteFailed: o.initRouteFailed,

		wg:  o.wg,
		wd:  o.wd,
		wt:  o.wt,
		wcr: o.wcr,

		netStamp:  make([]uint32, len(o.netStamp)),
		cellStamp: make([]uint32, len(o.cellStamp)),
		perturbed: o.perturbed,

		path:     timing.EdgePath{Cells: slices.Clone(o.path.Cells), Slots: slices.Clone(o.path.Slots)},
		pathOK:   o.pathOK,
		onPath:   slices.Clone(o.onPath),
		pathGen:  o.pathGen,
		fullEval: o.fullEval,

		unrouted: append(make([]int32, 0, cap(o.unrouted)), o.unrouted...),
		spare:    make([]int32, 0, cap(o.spare)),
		ripped:   make([]int32, 0, cap(o.ripped)),
		estLen:   append([]float64(nil), o.estLen...),

		dynamics: append([]DynamicsSample(nil), o.dynamics...),

		chain:    o.chain,
		lastWork: o.lastWork,
	}
	for id := range o.Rts {
		c.Rts[id] = o.Rts[id].Clone()
	}
	c.watchAll()
	if o.crit != nil {
		c.crit = o.crit.Clone(c.An)
		c.netMaxD = append([]float64(nil), o.netMaxD...)
		c.critSum = o.critSum
		c.critCells = append(make([]int32, 0, cap(o.critCells)), o.critCells...)
		c.critStamp = make([]uint32, len(o.critStamp))
	}
	return c
}

// CloneProblem implements anneal.Forkable.
func (o *Optimizer) CloneProblem() anneal.Problem { return o.Clone() }

var _ anneal.Forkable = (*Optimizer)(nil)

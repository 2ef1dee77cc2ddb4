package timing

// Criticality maintains exponentially damped per-net timing criticalities
// over an evolving Analyzer. The instantaneous criticality of a net is
// 1 - slack/target clamped to [0,1] (1 on the critical path, toward 0 for
// timing-irrelevant nets), extracted from the analyzer's levelized arrival
// data by a single backward required-time pass. Because the annealer's view
// of which paths matter is noisy move to move, consumers fold each fresh
// extraction into a damped running value:
//
//	crit[i] ← damping·crit[i] + (1-damping)·inst[i]
//
// Update is intended to run at temperature boundaries only — one O(cells +
// pins) pass per temperature, nothing on the per-move hot path — and is
// allocation-free after construction (the backward-pass scratch is reused).
type Criticality struct {
	an      *Analyzer
	damping float64
	primed  bool
	crit    []float64 // damped per-net criticality, each in [0,1]
	inst    []float64 // scratch: last instantaneous extraction
	reqOut  []float64 // scratch: per-cell required output time
}

// NewCriticality builds an extractor over the analyzer. damping is the weight
// of history in each update, clamped to [0,1): 0 tracks the instantaneous
// criticality exactly, values toward 1 smooth it over many temperatures. The
// first Update primes the running values undamped (there is no history yet).
func NewCriticality(an *Analyzer, damping float64) *Criticality {
	if damping < 0 || damping >= 1 {
		damping = 0
	}
	return &Criticality{
		an:      an,
		damping: damping,
		crit:    make([]float64, an.nl.NumNets()),
		inst:    make([]float64, an.nl.NumNets()),
		reqOut:  make([]float64, len(an.nl.Cells)),
	}
}

// Update extracts instantaneous criticalities against the analyzer's current
// worst-case delay and folds them into the damped running values. It must be
// called outside an open move (the analyzer's committed state is what is
// extracted).
func (c *Criticality) Update() {
	c.an.netCriticalityInto(c.inst, c.reqOut, c.an.WCD())
	if !c.primed {
		c.primed = true
		copy(c.crit, c.inst)
		return
	}
	a := c.damping
	for i, v := range c.inst {
		c.crit[i] = a*c.crit[i] + (1-a)*v
	}
}

// Value returns the current damped criticality of a net.
func (c *Criticality) Value(net int32) float64 { return c.crit[net] }

// Values returns the damped per-net criticalities. The slice is owned by the
// extractor; callers must not mutate it and must not hold it across Update.
func (c *Criticality) Values() []float64 { return c.crit }

// Clone returns a deep copy of the extractor bound to the given analyzer
// (which must be a clone of the original's — the parallel annealing engine
// clones both together).
func (c *Criticality) Clone(an *Analyzer) *Criticality {
	return &Criticality{
		an:      an,
		damping: c.damping,
		primed:  c.primed,
		crit:    append([]float64(nil), c.crit...),
		inst:    make([]float64, len(c.inst)),
		reqOut:  make([]float64, len(c.reqOut)),
	}
}

// Package place implements the sequential baseline's placer: a
// TimberWolfSC-style simulated-annealing placement (the paper's reference
// [6], the basis of the Texas Instruments tool compared against) that
// minimizes estimated wirelength plus a channel-congestion penalty. Like the
// production flow the paper measures, it is deliberately blind to the
// channel segmentation and to timing — that blindness is exactly what the
// simultaneous approach exploits.
package place

import (
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/arch"
	"repro/internal/layout"
	"repro/internal/netlist"
)

// Config tunes the baseline placer.
type Config struct {
	Seed         int64
	MovesPerCell int // moves per temperature = MovesPerCell × #cells (default 12)
	MaxTemps     int // annealing temperature cap (default 250)

	// NetWeights, when non-nil, scales each net's wirelength contribution —
	// the classic criticality-weighted timing-driven placement (paper §2.1:
	// "placers often use initial critical path/net estimates to prioritize
	// the nets"). nil means uniform weights.
	NetWeights []float64
}

// The congestion model's constants. Keep each a separate operand where it is
// used: Go folds constant sub-expressions exactly, so two of them meeting in
// one expression would round once where run-time arithmetic rounds twice.
const (
	congestionWeight = 2.0  // weight of the congestion-overflow penalty
	capacityFactor   = 0.75 // usable fraction of per-bin track capacity
	binWidth         = 4    // columns per congestion bin
)

func (c *Config) setDefaults() {
	if c.MovesPerCell <= 0 {
		c.MovesPerCell = 12
	}
	if c.MaxTemps <= 0 {
		c.MaxTemps = 250
	}
}

// Result summarizes a placement run.
type Result struct {
	Wirelength float64
	Anneal     anneal.Result
}

// Place anneals a random initial placement of nl onto a and returns it.
func Place(a *arch.Arch, nl *netlist.Netlist, cfg Config) (*layout.Placement, Result, error) {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	p, err := layout.NewRandom(a, nl, rng)
	if err != nil {
		return nil, Result{}, err
	}
	pr := newProblem(p, cfg)
	ares := anneal.Run(pr, anneal.Config{
		Seed:         cfg.Seed + 1,
		MovesPerTemp: cfg.MovesPerCell * nl.NumCells(),
		MaxTemps:     cfg.MaxTemps,
	}, nil)
	return p, Result{Wirelength: pr.wl, Anneal: ares}, nil
}

// netContrib caches one net's current contribution to the cost terms.
type netContrib struct {
	wl   float64
	bins []chLen
}

// chLen is a net's occupied length within one (channel, column-bin) cell of
// the congestion map.
type chLen struct {
	bin int // flattened channel*nbins + bin index
	len float64
}

type problem struct {
	p   *layout.Placement
	cfg Config

	wl      float64
	nbins   int       // congestion bins per channel
	loads   []float64 // per (channel, bin): occupied interval length
	penalty float64   // sum over bins of overflow²
	cap     float64   // usable capacity per bin

	contrib []netContrib
	ivs     []chInterval // computeContrib's per-channel intervals

	// Move journal.
	movedA, movedB layout.Loc
	touched        []int32
	oldContrib     []netContrib
	oldWL          float64
	oldPenalty     float64
	netSeen        []uint32
	epoch          uint32
	scratch        []int32
}

func newProblem(p *layout.Placement, cfg Config) *problem {
	nbins := (p.A.Cols + binWidth - 1) / binWidth
	pr := &problem{
		p:       p,
		cfg:     cfg,
		nbins:   nbins,
		loads:   make([]float64, p.A.Channels()*nbins),
		contrib: make([]netContrib, p.NL.NumNets()),
		netSeen: make([]uint32, p.NL.NumNets()),
		cap:     capacityFactor * float64(p.A.Tracks) * float64(binWidth),
	}
	for id := range pr.contrib {
		c := pr.computeContrib(int32(id))
		pr.contrib[id] = c
		pr.wl += c.wl
		for _, cl := range c.bins {
			pr.loads[cl.bin] += cl.len
		}
	}
	for _, l := range pr.loads {
		pr.penalty += pr.overflow(l)
	}
	return pr
}

func (pr *problem) overflow(load float64) float64 {
	d := load - pr.cap
	if d <= 0 {
		return 0
	}
	return d * d
}

// computeContrib derives a net's wirelength and per-channel occupied length
// from the current placement (matching the channel needs groute derives).
func (pr *problem) computeContrib(id int32) netContrib {
	nl := pr.p.NL
	net := &nl.Nets[id]
	if len(net.Sinks) == 0 {
		return netContrib{}
	}
	var c netContrib
	ivs := pr.ivs[:0]
	ch, col := pr.p.PinPos(net.Driver)
	ivs = addPin(ivs, ch, col)
	for _, s := range net.Sinks {
		ch, col = pr.p.PinPos(s)
		ivs = addPin(ivs, ch, col)
	}
	pr.ivs = ivs
	// A multi-channel net's intervals will be extended to its feedthrough
	// column by the global router; model that with the bounding-box center
	// the router prefers.
	if len(ivs) > 1 {
		box := pr.p.NetBox(id)
		center := (box.ColLo + box.ColHi) / 2
		for i := range ivs {
			ivs[i].lo = min(ivs[i].lo, center)
			ivs[i].hi = max(ivs[i].hi, center)
		}
	}
	c.wl = pr.p.EstLength(id)
	if pr.cfg.NetWeights != nil {
		c.wl *= pr.cfg.NetWeights[id]
	}
	const w = binWidth
	for _, v := range ivs {
		for b := v.lo / w; b <= v.hi/w; b++ {
			lo, hi := max(b*w, v.lo), min((b+1)*w-1, v.hi)
			c.bins = append(c.bins, chLen{bin: v.ch*pr.nbins + b, len: float64(hi - lo + 1)})
		}
	}
	return c
}

// chInterval is the column interval [lo, hi] a net spans in channel ch.
type chInterval struct{ ch, lo, hi int }

// addPin widens ivs, kept in ascending channel order, to cover a pin at
// (ch, col), so a net's bins come out in ascending order.
func addPin(ivs []chInterval, ch, col int) []chInterval {
	i := 0
	for i < len(ivs) && ivs[i].ch < ch {
		i++
	}
	if i < len(ivs) && ivs[i].ch == ch {
		ivs[i].lo = min(ivs[i].lo, col)
		ivs[i].hi = max(ivs[i].hi, col)
		return ivs
	}
	ivs = append(ivs, chInterval{})
	copy(ivs[i+1:], ivs[i:])
	ivs[i] = chInterval{ch, col, col}
	return ivs
}

func (pr *problem) Cost() float64 {
	return pr.wl + congestionWeight*pr.penalty
}

// Propose implements anneal.Problem. A move costs too little to bound, so
// it ignores rejects and always returns the exact delta.
func (pr *problem) Propose(rng *rand.Rand, _ func(lb float64) bool) float64 {
	a := pr.p.A
	// Pick a random occupied slot and a random other slot (swap or translate).
	var la layout.Loc
	for {
		la = layout.Loc{Row: rng.Intn(a.Rows), Col: rng.Intn(a.Cols)}
		if pr.p.CellAt(la.Row, la.Col) >= 0 {
			break
		}
	}
	lb := layout.Loc{Row: rng.Intn(a.Rows), Col: rng.Intn(a.Cols)}
	pr.movedA, pr.movedB = la, lb
	before := pr.Cost()
	pr.oldWL, pr.oldPenalty = pr.wl, pr.penalty

	// Collect affected nets before the swap.
	pr.epoch++
	pr.touched = pr.touched[:0]
	pr.oldContrib = pr.oldContrib[:0]
	pr.collectNets(pr.p.CellAt(la.Row, la.Col))
	pr.collectNets(pr.p.CellAt(lb.Row, lb.Col))

	pr.p.Swap(la, lb)

	for _, id := range pr.touched {
		old := pr.contrib[id]
		pr.oldContrib = append(pr.oldContrib, old)
		pr.wl -= old.wl
		for _, cl := range old.bins {
			pr.penalty -= pr.overflow(pr.loads[cl.bin])
			pr.loads[cl.bin] -= cl.len
			pr.penalty += pr.overflow(pr.loads[cl.bin])
		}
		nc := pr.computeContrib(id)
		pr.contrib[id] = nc
		pr.wl += nc.wl
		for _, cl := range nc.bins {
			pr.penalty -= pr.overflow(pr.loads[cl.bin])
			pr.loads[cl.bin] += cl.len
			pr.penalty += pr.overflow(pr.loads[cl.bin])
		}
	}
	return pr.Cost() - before
}

func (pr *problem) collectNets(cell int32) {
	if cell < 0 {
		return
	}
	c := &pr.p.NL.Cells[cell]
	pr.scratch = pr.scratch[:0]
	if c.Out >= 0 {
		pr.scratch = append(pr.scratch, c.Out)
	}
	for _, in := range c.In {
		if in >= 0 {
			pr.scratch = append(pr.scratch, in)
		}
	}
	for _, id := range pr.scratch {
		if pr.netSeen[id] != pr.epoch {
			pr.netSeen[id] = pr.epoch
			pr.touched = append(pr.touched, id)
		}
	}
}

func (pr *problem) Accept() {}

func (pr *problem) Reject() {
	pr.p.Swap(pr.movedA, pr.movedB)
	for i, id := range pr.touched {
		nc := pr.contrib[id]
		for _, cl := range nc.bins {
			pr.loads[cl.bin] -= cl.len
		}
		old := pr.oldContrib[i]
		pr.contrib[id] = old
		for _, cl := range old.bins {
			pr.loads[cl.bin] += cl.len
		}
	}
	pr.wl = pr.oldWL
	pr.penalty = pr.oldPenalty
}

var _ anneal.Problem = (*problem)(nil)

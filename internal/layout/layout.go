// Package layout holds the geometric state of an evolving design: the
// assignment of cells to module slots and the pinmap selected for each cell.
// It maps logical pins to the (channel, column) positions the routers and the
// delay model consume.
package layout

import (
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/netlist"
)

// Loc is a module slot position.
type Loc struct {
	Row, Col int
}

// Placement is a complete, legal assignment of every cell to a distinct slot
// plus a pinmap choice per cell. Intermediate layouts in both flows are
// always legal placements (paper §3.2: no overlapping or unassigned cells).
type Placement struct {
	A  *arch.Arch
	NL *netlist.Netlist

	Slot [][]int32 // [row][col] -> cell id, or -1 when empty
	Loc  []Loc     // per cell
	Pm   []uint8   // per cell: pinmap variant index

	// pinmaps is the pinmap palette, arch.NumPinmaps variants for each input
	// count the netlist uses: variant v of cell id is pinmaps[pmBase[id]+v].
	// New fills both once; clones share them.
	pinmaps []arch.Pinmap
	pmBase  []int32

	// Incremental bounding-box cache: boxCache[id] holds the net's current
	// channel/column span when boxOK[id] is set. Entries are invalidated at
	// the mutation sites themselves (Swap, SetPinmap) for every net touching
	// a moved cell, so the cache is exact by construction — including across
	// move rollbacks, which are just another Swap/SetPinmap. NetBox fills
	// entries lazily on first read.
	boxCache []NetBox
	boxOK    []bool
}

// New returns a placement with every slot empty, for the caller to place
// every cell in: every cell's Loc is (0, 0) and its pinmap variant 0 until
// then. It fills the pinmap palette and sizes the bounding-box cache. The
// palette holds only the input counts that occur, so its size is linear in
// the netlist's pins whatever the widest cell.
func New(a *arch.Arch, nl *netlist.Netlist) *Placement {
	p := &Placement{
		A:        a,
		NL:       nl,
		Loc:      make([]Loc, nl.NumCells()),
		Pm:       make([]uint8, nl.NumCells()),
		pmBase:   make([]int32, nl.NumCells()),
		boxCache: make([]NetBox, nl.NumNets()),
		boxOK:    make([]bool, nl.NumNets()),
	}
	base := make(map[int]int32) // input count -> its palette offset
	for i := range nl.Cells {
		k := len(nl.Cells[i].In)
		b, ok := base[k]
		if !ok {
			b = int32(len(p.pinmaps))
			base[k] = b
			for v := 0; v < arch.NumPinmaps; v++ {
				p.pinmaps = append(p.pinmaps, arch.PinmapFor(k, v))
			}
		}
		p.pmBase[i] = b
	}
	p.Slot = make([][]int32, a.Rows)
	for r := range p.Slot {
		p.Slot[r] = make([]int32, a.Cols)
		for c := range p.Slot[r] {
			p.Slot[r][c] = -1
		}
	}
	return p
}

// NewRandom places all cells into random distinct slots with pinmap variant 0.
func NewRandom(a *arch.Arch, nl *netlist.Netlist, rng *rand.Rand) (*Placement, error) {
	n := nl.NumCells()
	if n > a.Slots() {
		return nil, fmt.Errorf("layout: %d cells exceed %d slots", n, a.Slots())
	}
	p := New(a, nl)
	perm := rng.Perm(a.Slots())
	for i := 0; i < n; i++ {
		s := perm[i]
		r, c := s/a.Cols, s%a.Cols
		p.Slot[r][c] = int32(i)
		p.Loc[i] = Loc{Row: r, Col: c}
	}
	return p, nil
}

// Clone returns a deep copy sharing only the immutable arch, netlist and
// pinmap palette with its offsets.
func (p *Placement) Clone() *Placement {
	q := &Placement{
		A:        p.A,
		NL:       p.NL,
		Loc:      append([]Loc(nil), p.Loc...),
		Pm:       append([]uint8(nil), p.Pm...),
		pinmaps:  p.pinmaps,
		pmBase:   p.pmBase,
		boxCache: append([]NetBox(nil), p.boxCache...),
		boxOK:    append([]bool(nil), p.boxOK...),
	}
	q.Slot = make([][]int32, len(p.Slot))
	for r := range p.Slot {
		q.Slot[r] = append([]int32(nil), p.Slot[r]...)
	}
	return q
}

// CellAt returns the cell occupying slot (row, col), or -1.
func (p *Placement) CellAt(row, col int) int32 { return p.Slot[row][col] }

// Swap exchanges the contents of two slots; either (or both) may be empty.
// The bounding boxes of every net touching a moved cell are invalidated, so
// the cache stays exact whether the swap is a tentative move or its rollback.
func (p *Placement) Swap(a, b Loc) {
	ca, cb := p.Slot[a.Row][a.Col], p.Slot[b.Row][b.Col]
	p.Slot[a.Row][a.Col], p.Slot[b.Row][b.Col] = cb, ca
	if ca >= 0 {
		p.Loc[ca] = b
		p.invalidateCellBoxes(ca)
	}
	if cb >= 0 {
		p.Loc[cb] = a
		p.invalidateCellBoxes(cb)
	}
}

// SetPinmap selects pinmap variant v for the cell. Pinmaps choose which
// channel each pin taps, so the cell's nets lose their cached boxes.
func (p *Placement) SetPinmap(cell int32, v uint8) {
	p.Pm[cell] = v
	p.invalidateCellBoxes(cell)
}

// invalidateCellBoxes drops the cached bounding box of every net attached to
// the cell.
func (p *Placement) invalidateCellBoxes(cell int32) {
	c := &p.NL.Cells[cell]
	if c.Out >= 0 {
		p.boxOK[c.Out] = false
	}
	for _, in := range c.In {
		if in >= 0 {
			p.boxOK[in] = false
		}
	}
}

// Pinmap returns the cell's current pinmap.
func (p *Placement) Pinmap(cell int32) arch.Pinmap {
	return p.pinmaps[p.pmBase[cell]+int32(p.Pm[cell]%arch.NumPinmaps)]
}

// PinPos returns the channel and column a pin currently taps.
func (p *Placement) PinPos(pin netlist.PinRef) (ch, col int) {
	loc := p.Loc[pin.Cell]
	side := p.Pinmap(pin.Cell)[pin.Pin]
	return p.A.ChannelOf(loc.Row, side), loc.Col
}

// NetBox is a net's current bounding box in channel/column space.
type NetBox struct {
	ChLo, ChHi   int
	ColLo, ColHi int
}

// NetBox returns the bounding box over all pin positions of the net, serving
// it from the incremental cache when the net's pins have not moved since the
// last computation. This is the hot lookup behind EstLength (the key of the
// optimizer's unrouted list), the global router's trunk-column selection, and
// the timing estimator.
func (p *Placement) NetBox(netID int32) NetBox {
	if p.boxOK[netID] {
		return p.boxCache[netID]
	}
	box := p.computeNetBox(netID)
	p.boxCache[netID] = box
	p.boxOK[netID] = true
	return box
}

// computeNetBox derives the bounding box from scratch by scanning every pin.
func (p *Placement) computeNetBox(netID int32) NetBox {
	n := &p.NL.Nets[netID]
	ch, col := p.PinPos(n.Driver)
	box := NetBox{ChLo: ch, ChHi: ch, ColLo: col, ColHi: col}
	for _, s := range n.Sinks {
		ch, col = p.PinPos(s)
		if ch < box.ChLo {
			box.ChLo = ch
		}
		if ch > box.ChHi {
			box.ChHi = ch
		}
		if col < box.ColLo {
			box.ColLo = col
		}
		if col > box.ColHi {
			box.ColHi = col
		}
	}
	return box
}

// EstLength is the net-length estimate used to order the unroutable-net
// queues (longer nets get routing priority) and to drive the baseline
// placer's wirelength objective: half-perimeter with channels weighted by the
// architecture's vertical span cost.
func (p *Placement) EstLength(netID int32) float64 {
	b := p.NetBox(netID)
	return float64(b.ColHi-b.ColLo) + 2*float64(b.ChHi-b.ChLo)
}

// ValidateNetBoxes cross-checks every cached bounding box against a
// from-scratch recomputation. Tests call it after move bursts; a mismatch
// means an invalidation path was missed.
func (p *Placement) ValidateNetBoxes() error {
	for id := range p.NL.Nets {
		if !p.boxOK[id] {
			continue
		}
		if got, want := p.boxCache[id], p.computeNetBox(int32(id)); got != want {
			return fmt.Errorf("layout: net %d cached box %+v, recompute %+v", id, got, want)
		}
	}
	return nil
}

// Validate checks slot/loc consistency: every cell placed exactly once and
// every non-empty slot pointing back at its cell.
func (p *Placement) Validate() error {
	seen := make([]bool, p.NL.NumCells())
	for r := range p.Slot {
		for c, id := range p.Slot[r] {
			if id < 0 {
				continue
			}
			if int(id) >= len(seen) {
				return fmt.Errorf("layout: slot (%d,%d) holds invalid cell %d", r, c, id)
			}
			if seen[id] {
				return fmt.Errorf("layout: cell %d placed twice", id)
			}
			seen[id] = true
			if p.Loc[id] != (Loc{r, c}) {
				return fmt.Errorf("layout: cell %d loc %v disagrees with slot (%d,%d)", id, p.Loc[id], r, c)
			}
		}
	}
	for id, ok := range seen {
		if !ok {
			return fmt.Errorf("layout: cell %d (%s) unplaced", id, p.NL.Cells[id].Name)
		}
	}
	return nil
}

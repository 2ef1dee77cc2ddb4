// Package netlist defines the technology-mapped netlist consumed by the
// layout tools: single-output logic cells typed as primary inputs, primary
// outputs, combinational modules, or sequential modules, connected by
// driver/sink nets. It includes a programmatic builder, hand-rolled parsers
// for a native ".net" format and a BLIF subset, a writer, validation, and
// levelization.
package netlist

import "fmt"

// CellType classifies a cell for placement and timing purposes.
type CellType uint8

const (
	// Input is a primary input pad: a timing source, drives one net.
	Input CellType = iota
	// Output is a primary output pad: a timing sink, receives one net.
	Output
	// Comb is a combinational logic module.
	Comb
	// Seq is a sequential module (flip-flop): both a timing sink (its data
	// inputs) and a timing source (its output).
	Seq
)

var typeNames = [...]string{"input", "output", "comb", "seq"}

func (t CellType) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("CellType(%d)", uint8(t))
}

// ParseCellType converts a type keyword to a CellType.
func ParseCellType(s string) (CellType, error) {
	for i, n := range typeNames {
		if s == n {
			return CellType(i), nil
		}
	}
	return 0, fmt.Errorf("netlist: unknown cell type %q", s)
}

// PinRef identifies one pin of one cell. Pin 0 is the cell's output; pins
// 1..k are its inputs in declaration order.
type PinRef struct {
	Cell int32
	Pin  int32
}

// Module delays in picoseconds: no netlist format carries delays, so these
// era-plausible values are given to the cells the parsers, the benchmark
// generator and the technology mapper create.
const (
	CombDelay = 3000 // intrinsic pin-to-pin delay of a combinational module
	SeqDelay  = 3500 // clock-to-out delay of a sequential module
)

// Cell is a logic module instance. In[i] is the net feeding input pin i+1
// (or -1 if unconnected); Out is the net driven by pin 0 (or -1).
type Cell struct {
	Name  string
	Type  CellType
	Delay float64 // intrinsic delay in picoseconds (comb: pin-to-pin; seq: clock-to-out)
	In    []int32
	Out   int32
}

// NumPins returns the number of pins on the cell (output + inputs).
func (c *Cell) NumPins() int { return len(c.In) + 1 }

// Net is a signal: one driver pin and zero or more sink pins.
type Net struct {
	Name   string
	Driver PinRef
	Sinks  []PinRef
}

// NumPins returns the total pin count on the net.
func (n *Net) NumPins() int { return len(n.Sinks) + 1 }

// Netlist is a complete technology-mapped design.
type Netlist struct {
	Name  string
	Cells []Cell
	Nets  []Net

	cellByName map[string]int32
	netByName  map[string]int32
}

// CellID returns the index of the named cell, or -1.
func (nl *Netlist) CellID(name string) int32 {
	if id, ok := nl.cellByName[name]; ok {
		return id
	}
	return -1
}

// NetID returns the index of the named net, or -1.
func (nl *Netlist) NetID(name string) int32 {
	if id, ok := nl.netByName[name]; ok {
		return id
	}
	return -1
}

// NumCells returns the number of cells.
func (nl *Netlist) NumCells() int { return len(nl.Cells) }

// NumNets returns the number of nets.
func (nl *Netlist) NumNets() int { return len(nl.Nets) }

// IsSource reports whether the cell's output arrival time does not depend on
// its inputs (primary inputs and flip-flop outputs).
func (nl *Netlist) IsSource(cell int32) bool {
	t := nl.Cells[cell].Type
	return t == Input || t == Seq
}

// IsSinkPin reports whether arrival at the given pin terminates a timing path
// (primary-output pads and flip-flop data inputs).
func (nl *Netlist) IsSinkPin(p PinRef) bool {
	t := nl.Cells[p.Cell].Type
	return (t == Output || t == Seq) && p.Pin >= 1
}

// rebuildIndex recomputes the name lookup maps.
func (nl *Netlist) rebuildIndex() {
	nl.cellByName = make(map[string]int32, len(nl.Cells))
	for i := range nl.Cells {
		nl.cellByName[nl.Cells[i].Name] = int32(i)
	}
	nl.netByName = make(map[string]int32, len(nl.Nets))
	for i := range nl.Nets {
		nl.netByName[nl.Nets[i].Name] = int32(i)
	}
}

// Validate checks referential integrity: unique names, driver/sink pin
// consistency between Cells and Nets, type-specific pin shapes, and that the
// combinational subgraph is acyclic.
func (nl *Netlist) Validate() error {
	names := make(map[string]bool, len(nl.Cells))
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if c.Name == "" {
			return fmt.Errorf("netlist: cell %d has empty name", i)
		}
		if names[c.Name] {
			return fmt.Errorf("netlist: duplicate cell name %q", c.Name)
		}
		names[c.Name] = true
		switch c.Type {
		case Input:
			if len(c.In) != 0 {
				return fmt.Errorf("netlist: input cell %q has input pins", c.Name)
			}
			if c.Out < 0 {
				return fmt.Errorf("netlist: input cell %q drives no net", c.Name)
			}
		case Output:
			if len(c.In) != 1 {
				return fmt.Errorf("netlist: output cell %q must have exactly one input", c.Name)
			}
			if c.Out >= 0 {
				return fmt.Errorf("netlist: output cell %q drives a net", c.Name)
			}
		case Comb, Seq:
			if len(c.In) == 0 {
				return fmt.Errorf("netlist: %s cell %q has no inputs", c.Type, c.Name)
			}
		default:
			return fmt.Errorf("netlist: cell %q has invalid type %d", c.Name, c.Type)
		}
		if c.Out >= 0 {
			if int(c.Out) >= len(nl.Nets) {
				return fmt.Errorf("netlist: cell %q output net %d out of range", c.Name, c.Out)
			}
			d := nl.Nets[c.Out].Driver
			if d.Cell != int32(i) || d.Pin != 0 {
				return fmt.Errorf("netlist: cell %q output net %q has mismatched driver", c.Name, nl.Nets[c.Out].Name)
			}
		}
		for pi, netID := range c.In {
			if netID < 0 {
				continue
			}
			if int(netID) >= len(nl.Nets) {
				return fmt.Errorf("netlist: cell %q input net %d out of range", c.Name, netID)
			}
			found := false
			for _, s := range nl.Nets[netID].Sinks {
				if s.Cell == int32(i) && s.Pin == int32(pi+1) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("netlist: cell %q pin %d not listed as sink of net %q", c.Name, pi+1, nl.Nets[netID].Name)
			}
		}
	}
	netNames := make(map[string]bool, len(nl.Nets))
	for i := range nl.Nets {
		n := &nl.Nets[i]
		if n.Name == "" {
			return fmt.Errorf("netlist: net %d has empty name", i)
		}
		if netNames[n.Name] {
			return fmt.Errorf("netlist: duplicate net name %q", n.Name)
		}
		netNames[n.Name] = true
		d := n.Driver
		if d.Cell < 0 || int(d.Cell) >= len(nl.Cells) || d.Pin != 0 {
			return fmt.Errorf("netlist: net %q has invalid driver", n.Name)
		}
		if nl.Cells[d.Cell].Out != int32(i) {
			return fmt.Errorf("netlist: net %q driver cell %q does not list it as output", n.Name, nl.Cells[d.Cell].Name)
		}
		for _, s := range n.Sinks {
			if s.Cell < 0 || int(s.Cell) >= len(nl.Cells) || s.Pin < 1 || int(s.Pin) > len(nl.Cells[s.Cell].In) {
				return fmt.Errorf("netlist: net %q has invalid sink %+v", n.Name, s)
			}
			if nl.Cells[s.Cell].In[s.Pin-1] != int32(i) {
				return fmt.Errorf("netlist: net %q sink cell %q pin %d mismatch", n.Name, nl.Cells[s.Cell].Name, s.Pin)
			}
		}
	}
	if _, err := nl.Levels(); err != nil {
		return err
	}
	return nil
}

// Levels levelizes the netlist (paper §3.5): timing sources (primary inputs
// and sequential cells) have level 0; every other cell's level is one more
// than the maximum level of the cells driving its inputs. Levels depend only
// on connectivity, never on placement, so this is computed once. An error is
// returned if the combinational subgraph contains a cycle.
func (nl *Netlist) Levels() ([]int32, error) {
	n := len(nl.Cells)
	level := make([]int32, n)
	deg := make([]int32, n) // unresolved combinational fanins
	queue := make([]int32, 0, n)
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if nl.IsSource(int32(i)) {
			queue = append(queue, int32(i))
			continue
		}
		d := int32(0)
		for _, netID := range c.In {
			if netID >= 0 {
				d++
			}
		}
		deg[i] = d
		if d == 0 {
			queue = append(queue, int32(i))
		}
	}
	processed := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		processed++
		c := &nl.Cells[id]
		if c.Out < 0 {
			continue
		}
		for _, s := range nl.Nets[c.Out].Sinks {
			if nl.IsSource(s.Cell) {
				continue // sequential cells break timing paths
			}
			if lv := level[id] + 1; lv > level[s.Cell] {
				level[s.Cell] = lv
			}
			deg[s.Cell]--
			if deg[s.Cell] == 0 {
				queue = append(queue, s.Cell)
			}
		}
	}
	if processed != n {
		return nil, fmt.Errorf("netlist: combinational cycle detected (%d of %d cells levelized)", processed, n)
	}
	return level, nil
}

// Stats summarizes a netlist for reports.
type Stats struct {
	Cells, Nets            int
	Inputs, Outputs        int
	CombCells, SeqCells    int
	MaxFanin, MaxFanout    int
	AvgFanout              float64
	LogicDepth             int // maximum level
	MultiRowCapableFanouts int // nets with >= 2 pins
}

// ComputeStats returns summary statistics; it assumes a valid netlist.
func (nl *Netlist) ComputeStats() Stats {
	var s Stats
	s.Cells = len(nl.Cells)
	s.Nets = len(nl.Nets)
	for i := range nl.Cells {
		c := &nl.Cells[i]
		switch c.Type {
		case Input:
			s.Inputs++
		case Output:
			s.Outputs++
		case Comb:
			s.CombCells++
		case Seq:
			s.SeqCells++
		}
		if len(c.In) > s.MaxFanin {
			s.MaxFanin = len(c.In)
		}
	}
	totalSinks := 0
	for i := range nl.Nets {
		k := len(nl.Nets[i].Sinks)
		totalSinks += k
		if k > s.MaxFanout {
			s.MaxFanout = k
		}
		if k >= 1 {
			s.MultiRowCapableFanouts++
		}
	}
	if s.Nets > 0 {
		s.AvgFanout = float64(totalSinks) / float64(s.Nets)
	}
	if lv, err := nl.Levels(); err == nil {
		for _, l := range lv {
			if int(l) > s.LogicDepth {
				s.LogicDepth = int(l)
			}
		}
	}
	return s
}

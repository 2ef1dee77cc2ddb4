// Package techmap implements the technology-mapping stage of the paper's
// Figure-1 flow (its references [9][16][17]): converting a generic logic
// netlist into a netlist of FPGA logic-module-sized cells. Two structural
// transformations are provided, mirroring the classic mappers' effect on the
// netlist the layout tools consume:
//
//   - fanin legalization: any combinational cell with more than K inputs is
//     decomposed into a balanced tree of K-input cells (Chortle-style tree
//     decomposition);
//   - absorption packing: a combinational cell whose only fanout is another
//     combinational cell is merged into it when the merged support still
//     fits in K inputs (the covering step of LUT mappers, which reduces both
//     cell count and logic depth).
//
// The layout system consumes only netlist structure, so mapping is
// structural: module logic functions are opaque here, exactly as they are to
// the placer and routers.
package techmap

import (
	"fmt"
	"sort"

	"repro/internal/netlist"
)

// Stats reports a mapping run.
type Stats struct {
	CellsIn, CellsOut int
	DepthIn, DepthOut int
	Decomposed        int // cells split for fanin legalization
	TreeCellsAdded    int // extra cells created by decomposition
	Absorbed          int // cells merged away by packing
}

// Map returns a new netlist in which every combinational cell has at most k
// inputs. k must be at least 2: a tree of 1-input cells cannot join two
// signals. Cells created by decomposition get netlist.CombDelay.
func Map(nl *netlist.Netlist, k int) (*netlist.Netlist, Stats, error) {
	if k < 2 {
		return nil, Stats{}, fmt.Errorf("techmap: module fanin %d is below the minimum of 2", k)
	}
	var st Stats
	st.CellsIn = nl.NumCells()
	if lv, err := nl.Levels(); err == nil {
		for _, l := range lv {
			if int(l) > st.DepthIn {
				st.DepthIn = int(l)
			}
		}
	}

	work := buildWork(nl)
	decompose(work, k, &st)
	absorb(work, k, &st)
	out, err := work.emit(nl.Name)
	if err != nil {
		return nil, st, err
	}
	st.CellsOut = out.NumCells()
	if lv, err := out.Levels(); err == nil {
		for _, l := range lv {
			if int(l) > st.DepthOut {
				st.DepthOut = int(l)
			}
		}
	}
	return out, st, nil
}

// workCell is a mutable cell during mapping; inputs are net names.
type workCell struct {
	name   string
	typ    netlist.CellType
	delay  float64
	out    string
	inputs []string
	dead   bool
}

// workNetlist is the mutable mapping state.
type workNetlist struct {
	cells   []*workCell
	byOut   map[string]*workCell // net name -> producing cell
	fanouts map[string]int       // net name -> sink count
	nextID  int
}

func buildWork(nl *netlist.Netlist) *workNetlist {
	w := &workNetlist{
		byOut:   make(map[string]*workCell),
		fanouts: make(map[string]int),
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		wc := &workCell{name: c.Name, typ: c.Type, delay: c.Delay}
		if c.Out >= 0 {
			wc.out = nl.Nets[c.Out].Name
			w.byOut[wc.out] = wc
		}
		for _, in := range c.In {
			if in < 0 {
				wc.inputs = append(wc.inputs, "")
				continue
			}
			name := nl.Nets[in].Name
			wc.inputs = append(wc.inputs, name)
			w.fanouts[name]++
		}
		w.cells = append(w.cells, wc)
	}
	return w
}

func (w *workNetlist) freshNet() string {
	w.nextID++
	return fmt.Sprintf("tm%d", w.nextID)
}

func (w *workNetlist) addCell(c *workCell) {
	w.cells = append(w.cells, c)
	if c.out != "" {
		w.byOut[c.out] = c
	}
	for _, in := range c.inputs {
		if in != "" {
			w.fanouts[in]++
		}
	}
}

// decompose splits every comb cell with more than k inputs into a balanced
// tree: groups of k inputs feed new intermediate cells until the root fits.
func decompose(w *workNetlist, k int, st *Stats) {
	n := len(w.cells) // only original cells; new ones are legal by construction
	for i := 0; i < n; i++ {
		c := w.cells[i]
		if c.typ != netlist.Comb || len(c.inputs) <= k {
			continue
		}
		st.Decomposed++
		level := append([]string(nil), c.inputs...)
		for len(level) > k {
			var next []string
			for j := 0; j < len(level); j += k {
				end := j + k
				if end > len(level) {
					end = len(level)
				}
				group := level[j:end]
				if len(group) == 1 {
					next = append(next, group[0])
					continue
				}
				out := w.freshNet()
				st.TreeCellsAdded++
				w.addCell(&workCell{
					name:   fmt.Sprintf("%s_t%d", c.name, w.nextID),
					typ:    netlist.Comb,
					delay:  netlist.CombDelay,
					out:    out,
					inputs: append([]string(nil), group...),
				})
				next = append(next, out)
			}
			level = next
		}
		// Rewire the root to the reduced input set.
		for _, in := range c.inputs {
			if in != "" {
				w.fanouts[in]--
			}
		}
		c.inputs = level
		for _, in := range c.inputs {
			if in != "" {
				w.fanouts[in]++
			}
		}
	}
}

// absorb merges single-fanout comb cells into their unique comb fanout when
// the merged support fits k inputs. Iterates to a fixed point.
func absorb(w *workNetlist, k int, st *Stats) {
	// sinksOf maps a net to its consuming cells (recomputed per round; the
	// netlists here are small).
	for changed := true; changed; {
		changed = false
		sinksOf := make(map[string][]*workCell)
		for _, c := range w.cells {
			if c.dead {
				continue
			}
			for _, in := range c.inputs {
				if in != "" {
					sinksOf[in] = append(sinksOf[in], c)
				}
			}
		}
		for _, c := range w.cells {
			if c.dead || c.typ != netlist.Comb || c.out == "" {
				continue
			}
			sinks := sinksOf[c.out]
			if len(sinks) != 1 || w.fanouts[c.out] != 1 {
				continue
			}
			host := sinks[0]
			if host.dead || host.typ != netlist.Comb || host == c {
				continue
			}
			// Merged support: host inputs minus c.out, plus c's inputs.
			support := make(map[string]bool)
			for _, in := range host.inputs {
				if in != "" && in != c.out {
					support[in] = true
				}
			}
			for _, in := range c.inputs {
				if in != "" {
					support[in] = true
				}
			}
			if len(support) > k {
				continue
			}
			// Absorb: host's input list becomes the merged support.
			for _, in := range host.inputs {
				if in != "" {
					w.fanouts[in]--
				}
			}
			for _, in := range c.inputs {
				if in != "" {
					w.fanouts[in]--
				}
			}
			merged := make([]string, 0, len(support))
			for in := range support {
				merged = append(merged, in)
			}
			sort.Strings(merged)
			host.inputs = merged
			for _, in := range host.inputs {
				w.fanouts[in]++
			}
			host.delay = maxF(host.delay, c.delay)
			delete(w.byOut, c.out)
			c.dead = true
			st.Absorbed++
			changed = true
		}
	}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// emit materializes the work state as a validated netlist.
func (w *workNetlist) emit(name string) (*netlist.Netlist, error) {
	b := netlist.NewBuilder(name)
	for _, c := range w.cells {
		if c.dead {
			continue
		}
		b.AddCell(c.name, c.typ, c.delay, c.out, c.inputs...)
	}
	return b.Build()
}

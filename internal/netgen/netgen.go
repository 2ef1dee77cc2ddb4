// Package netgen generates deterministic synthetic netlists standing in for
// the MCNC benchmarks used in the paper's evaluation (s1, cse, ex1, bw, s1a,
// plus the 529-cell Figure-7 design). The real MCNC designs, technology
// mapped by TI's tools, are not available; these stand-ins match the paper's
// cell counts and era-plausible structure (fanin ≤ 4 logic modules, FSM-like
// input/output/flip-flop fractions, a locality bias that yields realistic
// logic depth). The layout algorithms consume only graph structure, and every
// experiment compares two flows on the same netlist, so relative results are
// preserved (see DESIGN.md §5).
package netgen

import (
	"fmt"
	"math/rand"

	"repro/internal/netlist"
)

// Params controls synthetic netlist generation.
type Params struct {
	Name    string
	Inputs  int
	Outputs int
	Seq     int
	Comb    int

	MaxFanin int     // logic module fanin limit (default 4)
	Depth    int     // target logic depth in comb levels (default 9)
	Locality float64 // probability a fanin comes from the immediately previous level (default 0.65)
	Seed     int64
}

func (p *Params) setDefaults() {
	if p.MaxFanin <= 1 {
		p.MaxFanin = 4
	}
	if p.Depth <= 0 {
		p.Depth = 9
	}
	if p.Locality <= 0 {
		p.Locality = 0.65
	}
}

// TotalCells returns the cell count the parameters produce.
func (p Params) TotalCells() int { return p.Inputs + p.Outputs + p.Seq + p.Comb }

// Generate builds the synthetic netlist. The same Params always produce the
// same netlist.
func Generate(p Params) (*netlist.Netlist, error) {
	p.setDefaults()
	if p.Inputs < 1 || p.Outputs < 1 || p.Comb < 1 || p.Seq < 0 {
		return nil, fmt.Errorf("netgen: need at least one input, output and comb cell (%+v)", p)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	b := netlist.NewBuilder(p.Name)

	// Nets organized by logic level; level 0 holds the sources (primary
	// inputs and flip-flop outputs). Use counts support fanout balancing.
	uses := map[string]int{}
	var levelNets [][]string
	addNet := func(level int, n string) {
		for len(levelNets) <= level {
			levelNets = append(levelNets, nil)
		}
		levelNets[level] = append(levelNets[level], n)
		uses[n] = 0
	}
	// Tournament pick from a candidate level set, preferring less-used nets
	// to keep fanouts realistic.
	pickFrom := func(nets []string, exclude map[string]bool) string {
		best := ""
		for try := 0; try < 6; try++ {
			c := nets[rng.Intn(len(nets))]
			if exclude[c] {
				continue
			}
			if best == "" || uses[c] < uses[best] {
				best = c
			}
		}
		if best == "" {
			best = nets[rng.Intn(len(nets))] // give up on exclusion
		}
		uses[best]++
		return best
	}

	for i := 0; i < p.Inputs; i++ {
		n := fmt.Sprintf("pi%d", i)
		b.Input(fmt.Sprintf("ipad%d", i), n)
		addNet(0, n)
	}
	// Flip-flop outputs are sources usable by any comb cell; the flop data
	// inputs are connected after the logic exists (feedback through flops is
	// legal and common in FSMs).
	for i := 0; i < p.Seq; i++ {
		addNet(0, fmt.Sprintf("q%d", i))
	}

	// Layered combinational logic: cells are spread over Depth levels; each
	// cell's first fanin comes from the previous level (guaranteeing the
	// level exists), the rest mostly from nearby lower levels.
	perLevel := (p.Comb + p.Depth - 1) / p.Depth
	var combNets []string
	for i := 0; i < p.Comb; i++ {
		level := 1 + i/perLevel
		if level >= len(levelNets)+1 {
			level = len(levelNets)
		}
		fanin := 2 + rng.Intn(p.MaxFanin-1)
		ex := make(map[string]bool, fanin)
		ins := make([]string, 0, fanin)
		first := pickFrom(levelNets[level-1], ex)
		ex[first] = true
		ins = append(ins, first)
		for k := 1; k < fanin; k++ {
			var src []string
			if rng.Float64() < p.Locality {
				src = levelNets[level-1]
			} else {
				src = levelNets[rng.Intn(level)]
			}
			n := pickFrom(src, ex)
			if ex[n] {
				continue // exclusion failed in a tiny level; drop this fanin
			}
			ex[n] = true
			ins = append(ins, n)
		}
		out := fmt.Sprintf("c%d", i)
		b.Comb(fmt.Sprintf("g%d", i), netlist.CombDelay, out, ins...)
		addNet(level, out)
		combNets = append(combNets, out)
	}
	for i := 0; i < p.Seq; i++ {
		d := combNets[rng.Intn(len(combNets))]
		uses[d]++
		b.Seq(fmt.Sprintf("ff%d", i), netlist.SeqDelay, fmt.Sprintf("q%d", i), d)
	}
	// Primary outputs tap distinct late logic nets where possible.
	taken := map[string]bool{}
	for i := 0; i < p.Outputs; i++ {
		var n string
		for try := 0; try < 20; try++ {
			n = combNets[len(combNets)-1-rng.Intn(minInt(len(combNets), 3*p.Outputs))]
			if !taken[n] {
				break
			}
		}
		taken[n] = true
		uses[n]++
		b.Output(fmt.Sprintf("opad%d", i), n)
	}
	return b.Build()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Profile returns the generation parameters for one of the paper's named
// benchmarks. Cell counts match Table 1/2 exactly; I/O and flip-flop splits
// follow the published MCNC FSM benchmark shapes.
func Profile(name string) (Params, bool) {
	p, ok := profiles[name]
	return p, ok
}

// Profiles lists the available benchmark names, the paper's five table
// designs first, then the Figure-7 design and the test-sized extra.
func Profiles() []string {
	return []string{"s1", "cse", "ex1", "bw", "s1a", "big529", "tiny"}
}

var profiles = map[string]Params{
	// Table 1/2 designs: cell counts are the paper's (#cells column).
	"s1":  {Name: "s1", Inputs: 8, Outputs: 6, Seq: 5, Comb: 162, Depth: 9, Seed: 101},    // 181
	"cse": {Name: "cse", Inputs: 7, Outputs: 7, Seq: 4, Comb: 138, Depth: 8, Seed: 102},   // 156
	"ex1": {Name: "ex1", Inputs: 9, Outputs: 19, Seq: 5, Comb: 194, Depth: 10, Seed: 103}, // 227
	"bw":  {Name: "bw", Inputs: 5, Outputs: 28, Seq: 5, Comb: 120, Depth: 7, Seed: 104},   // 158
	"s1a": {Name: "s1a", Inputs: 8, Outputs: 6, Seq: 5, Comb: 144, Depth: 9, Seed: 105},   // 163
	// Figure 7's larger design.
	"big529": {Name: "big529", Inputs: 20, Outputs: 16, Seq: 24, Comb: 469, Depth: 12, Seed: 107}, // 529
	// Not from the paper: a 30-cell design for tests, examples and smoke runs.
	"tiny": {Name: "tiny", Inputs: 4, Outputs: 3, Seq: 2, Comb: 21, Depth: 5, Seed: 100},
}

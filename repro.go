// Package repro is a from-scratch reproduction of "Performance-Driven
// Simultaneous Place and Route for Row-Based FPGAs" (Nag & Rutenbar, DAC
// 1994): a complete layout system for ACTEL-style antifuse row-based FPGAs
// in which placement, global routing and detailed routing evolve inside one
// simulated-annealing optimization under a routability + worst-case-delay
// cost, plus the traditional sequential flow (TimberWolf-style placement →
// one-shot global routing → segmented channel routing) the paper compares
// against.
//
// Quick start:
//
//	nl, _ := repro.GenerateBenchmark("s1")
//	a, _ := repro.ArchFor(nl, 38)
//	lay, _ := repro.Simultaneous(a, nl, repro.SimConfig{Seed: 1})
//	fmt.Printf("routed=%v worst-case delay=%.1f ns\n",
//		lay.FullyRouted, lay.WCD/1000)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured results of every table and figure.
package repro

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/fabric"
	"repro/internal/layio"
	"repro/internal/layout"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/seq"
	"repro/internal/techmap"
	"repro/internal/timing"
)

// Re-exported building blocks. The aliases expose the full documented API of
// the underlying packages through the public module surface.
type (
	// Arch is a compiled row-based FPGA architecture.
	Arch = arch.Arch
	// Netlist is a technology-mapped design.
	Netlist = netlist.Netlist
	// Placement is a legal assignment of cells to module slots.
	Placement = layout.Placement
	// NetRoute is the segment-level disposition of one net.
	NetRoute = fabric.NetRoute
	// SimConfig tunes the simultaneous place-and-route optimizer.
	SimConfig = core.Config
	// SimResult is the simultaneous optimizer's run report.
	SimResult = core.Result
	// SeqConfig tunes the sequential baseline flow.
	SeqConfig = seq.Config
	// BenchmarkParams controls synthetic benchmark generation.
	BenchmarkParams = netgen.Params
)

// DefaultArch returns a default-parameterized architecture of the given
// geometry (mixed segmentation, era-plausible RC constants).
func DefaultArch(rows, cols, tracks int) (*Arch, error) {
	return arch.New(arch.Default(rows, cols, tracks))
}

// ArchFor sizes a default architecture to hold the netlist at roughly 55%
// utilization with the given channel capacity.
func ArchFor(nl *Netlist, tracks int) (*Arch, error) { return exper.ArchFor(nl, tracks) }

// LoadNetlist reads a netlist file; the format is chosen by extension
// (".net" native format, ".blif" BLIF subset, ".xnf" XNF subset).
func LoadNetlist(path string) (*Netlist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return netlist.Parse(f, strings.TrimPrefix(strings.ToLower(filepath.Ext(path)), "."))
}

// SaveNetlist writes a netlist in the native .net format.
func SaveNetlist(w io.Writer, nl *Netlist) error { return netlist.WriteNet(w, nl) }

// GenerateBenchmark builds one of the named synthetic MCNC stand-ins
// (s1, cse, ex1, bw, s1a, big529, tiny).
func GenerateBenchmark(name string) (*Netlist, error) { return exper.Design(name) }

// GenerateNetlist builds a synthetic netlist from explicit parameters.
func GenerateNetlist(p BenchmarkParams) (*Netlist, error) { return netgen.Generate(p) }

// Benchmarks lists the available benchmark names.
func Benchmarks() []string { return netgen.Profiles() }

// TechMapStats reports a technology-mapping run.
type TechMapStats = techmap.Stats

// TechMap legalizes a generic logic netlist to K-input FPGA modules (the
// technology-mapping stage of the paper's Figure-1 flow): combinational
// cells with more than k inputs are decomposed into balanced trees, and
// single-fanout cells are absorbed into their fanout when the merged support
// still fits (classic covering). Layouts consume the result. k must be at
// least 2.
func TechMap(nl *Netlist, k int) (*Netlist, TechMapStats, error) {
	return techmap.Map(nl, k)
}

// Layout is a finished physical design: every cell placed, every net's
// segment assignment, and its timing.
type Layout struct {
	Arch        *Arch
	Netlist     *Netlist
	Placement   *Placement
	Routes      []NetRoute
	FullyRouted bool
	Unrouted    int     // nets lacking a complete detailed route
	WCD         float64 // worst-case path delay, picoseconds

	// Sim holds the simultaneous optimizer's run report (nil for layouts
	// produced by the sequential flow).
	Sim *SimResult
}

// Simultaneous runs the paper's simultaneous place-and-route optimization.
// With cfg.Chains > 1 the annealing runs as a parallel portfolio of chains
// (see core.Config) and the returned layout is the champion chain's state;
// the default is the serial engine.
func Simultaneous(a *Arch, nl *Netlist, cfg SimConfig) (*Layout, error) {
	o, err := core.New(a, nl, cfg)
	if err != nil {
		return nil, err
	}
	o, res := o.RunParallel()
	return &Layout{
		Arch:        a,
		Netlist:     nl,
		Placement:   o.P,
		Routes:      o.Rts,
		FullyRouted: res.FullyRouted,
		Unrouted:    res.D,
		WCD:         res.WCD,
		Sim:         &res,
	}, nil
}

// Sequential runs the traditional place-then-route baseline flow.
func Sequential(a *Arch, nl *Netlist, cfg SeqConfig) (*Layout, error) {
	res, err := seq.Run(a, nl, cfg)
	if err != nil {
		return nil, err
	}
	return &Layout{
		Arch:        a,
		Netlist:     nl,
		Placement:   res.P,
		Routes:      res.Routes,
		FullyRouted: res.FullyRouted,
		Unrouted:    res.UnroutedNets,
		WCD:         res.WCD,
	}, nil
}

// VerifyTiming re-analyzes the layout with the in-loop Elmore model at wire
// load 1.10 (timing.Verify, this reproduction's RICE stand-in, which shares
// the model, so it is not independent) and reports the agreement, the
// layout's in-loop WCD over the re-analyzed one. A fully routed layout's
// agreement lies in [0.909, 1] by construction. The layout must be fully
// routed.
func (l *Layout) VerifyTiming() (wcd, agreement float64, err error) {
	if !l.FullyRouted {
		return 0, 0, fmt.Errorf("repro: layout is not fully routed")
	}
	res, err := timing.Verify(l.Placement, l.Routes, l.WCD)
	if err != nil {
		return 0, 0, err
	}
	return res.WCD, res.Agreement, nil
}

// TimingPath is one reported critical path.
type TimingPath struct {
	CellNames []string
	Arrival   float64 // ps at the terminating sink pin
}

// CriticalPaths analyzes the layout and returns up to k paths, worst first,
// one per distinct timing endpoint.
func (l *Layout) CriticalPaths(k int) ([]TimingPath, error) {
	an, err := timing.Analyze(l.Placement, l.Routes)
	if err != nil {
		return nil, err
	}
	paths := an.TopPaths(k)
	out := make([]TimingPath, len(paths))
	for i, p := range paths {
		tp := TimingPath{Arrival: p.Arrival}
		for _, c := range p.Cells {
			tp.CellNames = append(tp.CellNames, l.Netlist.Cells[c].Name)
		}
		out[i] = tp
	}
	return out, nil
}

// Save serializes the layout (placement, pinmaps, every net's segment
// assignment) in a canonical text format reloadable by LoadLayout.
func (l *Layout) Save(w io.Writer) error {
	return layio.Write(w, l.Placement, l.Routes)
}

// LoadLayout reads a layout saved by Save, validating it against the
// architecture and netlist (geometry, placement legality, every route being
// the one its net's pins derive, resource exclusivity), and re-deriving
// routedness and timing.
func LoadLayout(a *Arch, nl *Netlist, r io.Reader) (*Layout, error) {
	p, routes, err := layio.Read(r, a, nl)
	if err != nil {
		return nil, err
	}
	l := &Layout{Arch: a, Netlist: nl, Placement: p, Routes: routes}
	for id := range routes {
		if !routes[id].DetailDone() {
			l.Unrouted++
		}
	}
	l.FullyRouted = l.Unrouted == 0
	an, err := timing.Analyze(l.Placement, l.Routes)
	if err != nil {
		return nil, err
	}
	l.WCD = an.WCD()
	return l, nil
}

// WriteSummary prints a human-readable report of the layout.
func (l *Layout) WriteSummary(w io.Writer) error {
	st := l.Netlist.ComputeStats()
	if _, err := fmt.Fprintf(w, "design %s: %d cells (%d comb, %d seq, %d+%d pads), %d nets\n",
		l.Netlist.Name, st.Cells, st.CombCells, st.SeqCells, st.Inputs, st.Outputs, st.Nets); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "array  %d rows x %d cols, %d tracks/channel, %d vtracks/column\n",
		l.Arch.Rows, l.Arch.Cols, l.Arch.Tracks, l.Arch.VTracks); err != nil {
		return err
	}
	if l.FullyRouted {
		if _, err := fmt.Fprintf(w, "routing 100%% complete\n"); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintf(w, "routing INCOMPLETE: %d nets unrouted\n", l.Unrouted); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "worst-case delay %.2f ns\n", l.WCD/1000); err != nil {
		return err
	}
	af, segs := 0, 0
	for i := range l.Routes {
		af += l.Routes[i].AntifuseCount()
		for _, c := range l.Routes[i].Chans {
			if c.Routed() {
				segs += c.SegHi - c.SegLo + 1
			}
		}
	}
	_, err := fmt.Fprintf(w, "resources %d horizontal segments, %d programmed antifuses\n", segs, af)
	return err
}

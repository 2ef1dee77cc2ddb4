// Command fpgapr places and routes a netlist onto a row-based FPGA with
// either the simultaneous (paper) or sequential (baseline) flow.
//
// Usage:
//
//	fpgapr -design s1 -flow sim
//	fpgapr -netlist mydesign.net -flow seq -tracks 24 -seed 7
//	fpgapr -design cse -stats -pprof prof    # metrics report + prof.cpu/heap.pprof
//	fpgapr -design s1 -portfolio seeds4      # best-of-N sweep, champion reported
//
// The netlist comes from -netlist (a .net, .blif or .xnf file) or -design (a
// named synthetic benchmark). The tool prints a layout summary and, when the
// layout routes completely, the post-layout timing check: the in-loop Elmore
// model run again at wire load 1.10, so its agreement lies in [0.909, 1] by
// construction. Engine concurrency (parallel chains, router pools) follows
// GOMAXPROCS and never changes a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/droute"
	"repro/internal/exper"
	"repro/internal/metrics"
	"repro/internal/portfolio"
)

// options carries every CLI knob; tests drive run directly with a literal.
type options struct {
	netlistPath string
	design      string
	flow        string // sim or seq
	tracks      int
	seed        int64
	effort      int // annealing moves per cell per temperature
	maxTemps    int
	wirability  bool
	render      bool
	maxFanin    int
	chains      int

	critWeight   float64
	timingDriven bool // sequential flow: criticality-weighted second placement pass

	routeBackend string // detailed-router backend (ordered, negotiated, lagrange)

	portfolio string // best-of-N sweep: preset name or inline JSON matrix

	stats  bool   // print the metrics summary after the run
	pprofP string // profile path prefix; writes <p>.cpu.pprof and <p>.heap.pprof
}

func main() {
	var o options
	flag.StringVar(&o.netlistPath, "netlist", "", "netlist file (.net, .blif or .xnf)")
	flag.StringVar(&o.design, "design", "", "named synthetic benchmark (s1, cse, ex1, bw, s1a, big529, tiny)")
	flag.StringVar(&o.flow, "flow", "sim", "layout flow: sim (simultaneous) or seq (sequential)")
	flag.IntVar(&o.tracks, "tracks", 28, "tracks per channel")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.effort, "effort", 8, "annealing moves per cell per temperature")
	flag.IntVar(&o.maxTemps, "maxtemps", 120, "annealing temperature cap")
	flag.BoolVar(&o.wirability, "wirability-only", false, "simultaneous flow: optimize routability only (no timing term)")
	flag.BoolVar(&o.render, "render", false, "print an ASCII rendering of the finished layout")
	flag.IntVar(&o.maxFanin, "maxfanin", 0, "technology-map the netlist to this module fanin first (0 = netlist must already be legal)")
	flag.IntVar(&o.chains, "chains", 1, "simultaneous flow: parallel annealing chains (1 = serial engine)")
	flag.Float64Var(&o.critWeight, "crit-weight", 0, "simultaneous flow: weight of the criticality-weighted net-delay cost term (0 = off)")
	flag.BoolVar(&o.timingDriven, "timing-driven", false, "sequential flow: run a criticality-weighted second placement pass")
	flag.StringVar(&o.routeBackend, "route-backend", "", `detailed-router backend: "ordered" (default), "negotiated" or "lagrange"`)
	flag.StringVar(&o.portfolio, "portfolio", "", `simultaneous flow: best-of-N sweep over a matrix preset (paper8, seeds4, seeds8) or an inline JSON matrix like {"seeds":[1,2,3]}`)
	flag.BoolVar(&o.stats, "stats", false, "print optimizer metrics (phase timers, move/router/STA counters) after the run")
	flag.StringVar(&o.pprofP, "pprof", "", "write <prefix>.cpu.pprof and <prefix>.heap.pprof profiles of the run")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "fpgapr:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	var (
		nl  *repro.Netlist
		err error
	)
	switch {
	case o.netlistPath != "" && o.design != "":
		return fmt.Errorf("give either -netlist or -design, not both")
	case o.netlistPath != "":
		nl, err = repro.LoadNetlist(o.netlistPath)
	case o.design != "":
		nl, err = repro.GenerateBenchmark(o.design)
	default:
		return fmt.Errorf("need -netlist FILE or -design NAME (available: %v)", repro.Benchmarks())
	}
	if err != nil {
		return err
	}
	if err := nl.Validate(); err != nil {
		return err
	}
	if o.maxFanin > 0 {
		mapped, st, err := repro.TechMap(nl, o.maxFanin)
		if err != nil {
			return err
		}
		fmt.Printf("technology mapping to %d-input modules: %d -> %d cells (depth %d -> %d)\n",
			o.maxFanin, st.CellsIn, st.CellsOut, st.DepthIn, st.DepthOut)
		nl = mapped
	}

	a, err := repro.ArchFor(nl, o.tracks)
	if err != nil {
		return err
	}

	var sum *metrics.Summary
	if o.stats {
		sum = metrics.NewSummary()
	}
	stopProfile, err := metrics.StartProfile(o.pprofP)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "fpgapr:", err)
		}
	}()

	if o.portfolio != "" {
		if o.flow != "sim" {
			return fmt.Errorf("-portfolio requires -flow sim")
		}
		return runPortfolio(o, a, nl, sum)
	}

	var lay *repro.Layout
	switch o.flow {
	case "sim":
		lay, err = repro.Simultaneous(a, nl, repro.SimConfig{
			Seed:          o.seed,
			MovesPerCell:  o.effort,
			MaxTemps:      o.maxTemps,
			DisableTiming: o.wirability,
			Chains:        o.chains,
			CritWeight:    o.critWeight,
			RouteBackend:  droute.Backend(o.routeBackend),
			Metrics:       collectorOrNil(sum),
		})
	case "seq":
		cfg := repro.SeqConfig{Seed: o.seed, Metrics: collectorOrNil(sum)}
		cfg.Place.MovesPerCell = o.effort
		cfg.Place.MaxTemps = o.maxTemps
		cfg.RouteBackend = droute.Backend(o.routeBackend)
		if o.timingDriven {
			cfg.TimingDriven = true
			cfg.CritWeight = o.critWeight
		}
		lay, err = repro.Sequential(a, nl, cfg)
	default:
		return fmt.Errorf("unknown -flow %q (want sim or seq)", o.flow)
	}
	if err != nil {
		return err
	}
	return report(lay, o, sum)
}

// report prints the layout summary, timing verification, optional rendering
// and metrics — shared by the single-run and portfolio paths.
func report(lay *repro.Layout, o options, sum *metrics.Summary) error {
	if err := lay.WriteSummary(os.Stdout); err != nil {
		return err
	}
	if lay.Sim != nil && lay.Sim.Chains > 1 {
		fmt.Printf("parallel anneal: %d chains, champion %d, %d elite-migration restarts, %d champion switches\n",
			lay.Sim.Chains, lay.Sim.Champion, lay.Sim.Restarts, lay.Sim.ChampionSwitches)
	}
	if lay.FullyRouted {
		wcd, agreement, err := lay.VerifyTiming()
		if err != nil {
			return err
		}
		fmt.Printf("post-layout timing check at wire load 1.10: %.2f ns (in-loop/check agreement %.3f)\n",
			wcd/1000, agreement)
	}
	if o.render {
		fmt.Print(repro.RenderASCII(lay))
	}
	if sum != nil {
		fmt.Println()
		if err := sum.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// parsePortfolioMatrix resolves the -portfolio argument: a preset name, or an
// inline JSON matrix (which may itself name a preset).
func parsePortfolioMatrix(arg string) (portfolio.Matrix, error) {
	var m portfolio.Matrix
	if strings.HasPrefix(strings.TrimSpace(arg), "{") {
		dec := json.NewDecoder(strings.NewReader(arg))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&m); err != nil {
			return m, fmt.Errorf("-portfolio matrix: %w", err)
		}
	} else {
		m.Preset = arg
	}
	m, err := exper.ResolvePortfolio(m)
	if err != nil {
		return m, fmt.Errorf("-portfolio: %w", err)
	}
	return m, nil
}

// runPortfolio expands the matrix against the base options, runs every
// member, prints the scoreboard, and reports the champion layout under the
// deterministic (score, member index) tie-break — the same selection the
// fpgaprd portfolio endpoint makes server-side.
func runPortfolio(o options, a *repro.Arch, nl *repro.Netlist, sum *metrics.Summary) error {
	matrix, err := parsePortfolioMatrix(o.portfolio)
	if err != nil {
		return err
	}
	members, err := matrix.Expand()
	if err != nil {
		return err
	}
	fmt.Printf("portfolio: %d members\n", len(members))
	scored := make([]*portfolio.Score, len(members))
	layouts := make([]*repro.Layout, len(members))
	for i := range members {
		m := &members[i]
		cfg := repro.SimConfig{
			Seed:          o.seed,
			MovesPerCell:  o.effort,
			MaxTemps:      o.maxTemps,
			DisableTiming: o.wirability,
			Chains:        o.chains,
			CritWeight:    o.critWeight,
			RouteBackend:  droute.Backend(o.routeBackend),
			Metrics:       collectorOrNil(sum),
		}
		if m.Seed != 0 {
			cfg.Seed = m.Seed
		}
		if m.Effort.MovesPerCell != 0 {
			cfg.MovesPerCell = m.Effort.MovesPerCell
		}
		if m.Effort.MaxTemps != 0 {
			cfg.MaxTemps = m.Effort.MaxTemps
		}
		if m.Effort.Chains != 0 {
			cfg.Chains = m.Effort.Chains
		}
		if m.Backend != "" {
			cfg.RouteBackend = droute.Backend(m.Backend)
		}
		start := time.Now()
		lay, err := repro.Simultaneous(a, nl, cfg)
		wall := time.Since(start)
		if err != nil {
			fmt.Printf("  member %2d  %-34s  error: %v\n", i, m.Desc(), err)
			continue
		}
		sc := exper.QualityOf(*lay.Sim).Score()
		scored[i], layouts[i] = &sc, lay
		fmt.Printf("  member %2d  %-34s  unrouted %3d  wcd %8.1f ps  cost %10.1f  wall %s\n",
			i, m.Desc(), sc.Unrouted, sc.WCDPs, sc.Cost, wall.Round(time.Millisecond))
	}
	champ := portfolio.Champion(scored)
	if champ < 0 {
		return fmt.Errorf("portfolio: no member produced a layout")
	}
	fmt.Printf("champion: member %d (%s)\n\n", champ, members[champ].Desc())
	return report(layouts[champ], o, sum)
}

// collectorOrNil keeps the optimizer's collector nil (fully disabled) when
// stats are off; a typed-nil *Summary inside the interface would not.
func collectorOrNil(sum *metrics.Summary) metrics.Collector {
	if sum == nil {
		return nil
	}
	return sum
}

// Command bench runs the benchmark suite at a fixed seed and writes a
// schema-versioned JSON report (BENCH_<date>.json by default). Quality fields
// (final cost, unrouted counts, critical path) are bit-identical across runs
// for a fixed configuration; wall-clock fields vary by machine.
//
// Usage:
//
//	bench -effort fast -seed 1                    # write BENCH_<date>.json
//	bench -suite paper                            # full Table-1 + big529 run at paper effort
//	bench -out BENCH_baseline.json                # (re)generate the CI baseline
//	bench -compare BENCH_baseline.json            # CI gate: exit 1 on regression
//	bench -crit-weight 1 -compare BENCH_cur.json -timing-gate
//	                                              # timing-quality gate: geomean critical
//	                                              # path must improve at <=5% wall cost
//	bench -route-backend lagrange -compare BENCH_cur.json -route-gate
//	                                              # route-scaling gate: quality-neutral
//	                                              # routing at no higher route wall time
//	bench -trace run.jsonl                        # also dump the event stream
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/droute"
	"repro/internal/exper"
	"repro/internal/metrics"
)

func main() {
	var (
		suite      = flag.String("suite", "small", `benchmark suite: "small" (CI smoke) or "paper" (all Table-1 designs plus big529, defaulting to paper effort)`)
		effortFlag = flag.String("effort", "fast", "effort level: fast or paper")
		seed       = flag.Int64("seed", 1, "random seed (quality metrics are deterministic per seed)")
		designs    = flag.String("designs", strings.Join(exper.BenchDesigns(), ","), "comma-separated design names")
		tracks     = flag.Int("tracks", exper.DefaultTracks, "tracks per channel")
		chains     = flag.Int("chains", 1, "parallel annealing chains (1 = serial engine)")
		workers    = flag.Int("workers", 0, "max chains stepped concurrently (0 = GOMAXPROCS)")
		out        = flag.String("out", "", "output path (default BENCH_<yyyy-mm-dd>.json; - for stdout)")
		tracePath  = flag.String("trace", "", "also write the collector event stream to this JSONL file")
		compare    = flag.String("compare", "", "baseline BENCH_*.json to gate against; exit 1 on regression")
		wallTol    = flag.Float64("wall-tol", 0.25, "allowed relative wall-time regression for -compare")

		critWeight  = flag.Float64("crit-weight", 0, "criticality-weighted net-delay cost term (0 = off)")
		critBias    = flag.Float64("crit-bias", 0, "fraction of moves drawn from near-critical cells (0 = default when -crit-weight is set)")
		critDamping = flag.Float64("crit-damping", 0, "exponential damping of per-net criticalities (0 = default when -crit-weight is set)")
		timingGate  = flag.Bool("timing-gate", false, "-compare in timing-quality mode: require geomean critical-path improvement over the baseline at <=5% total wall cost (same-machine baseline)")

		routeBackend = flag.String("route-backend", "", `detailed-router backend: "ordered" (default), "negotiated" or "lagrange"`)
		routeWorkers = flag.Int("route-workers", 0, "max router concurrency (0 = GOMAXPROCS; scheduling only, never affects results)")
		routeIters   = flag.Int("route-iters", 0, "iteration cap for the negotiated/lagrange backends (0 = backend default)")
		routeGate    = flag.Bool("route-gate", false, "-compare in route-scaling mode: the selected backend must be quality-neutral on routing at no higher total route wall time than the baseline (same-machine baseline)")
	)
	flag.Parse()

	// The paper suite swaps in the full design list and paper effort, but an
	// explicit -designs or -effort on the command line still wins.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	switch *suite {
	case "small":
		// defaults above
	case "paper":
		if !explicit["designs"] {
			*designs = strings.Join(exper.PaperBenchDesigns(), ",")
		}
		if !explicit["effort"] {
			*effortFlag = "paper"
		}
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown -suite %q (want small or paper)\n", *suite)
		os.Exit(1)
	}

	o := runOpts{
		effortName: *effortFlag, seed: *seed, designCSV: *designs,
		tracks: *tracks, chains: *chains, workers: *workers,
		out: *out, tracePath: *tracePath, compare: *compare, wallTol: *wallTol,
		critWeight: *critWeight, critBias: *critBias, critDamping: *critDamping,
		timingGate:   *timingGate,
		routeBackend: *routeBackend, routeWorkers: *routeWorkers,
		routeIters: *routeIters, routeGate: *routeGate,
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOpts carries the parsed CLI configuration.
type runOpts struct {
	effortName  string
	seed        int64
	designCSV   string
	tracks      int
	chains      int
	workers     int
	out         string
	tracePath   string
	compare     string
	wallTol     float64
	critWeight  float64
	critBias    float64
	critDamping float64
	timingGate  bool

	routeBackend string
	routeWorkers int
	routeIters   int
	routeGate    bool
}

func run(o runOpts) error {
	if o.timingGate && o.routeGate {
		return fmt.Errorf("-timing-gate and -route-gate select different -compare modes; give at most one")
	}
	effortName, seed, designCSV := o.effortName, o.seed, o.designCSV
	tracks, chains, workers := o.tracks, o.chains, o.workers
	out, tracePath, compare, wallTol := o.out, o.tracePath, o.compare, o.wallTol
	var e exper.Effort
	switch effortName {
	case "fast":
		e = exper.FastEffort()
	case "paper":
		e = exper.PaperEffort()
	default:
		return fmt.Errorf("unknown -effort %q (want fast or paper)", effortName)
	}
	e.Chains = chains
	e.Workers = workers
	e.CritWeight = o.critWeight
	e.CritBias = o.critBias
	e.CritDamping = o.critDamping
	backend, err := droute.ParseBackend(o.routeBackend)
	if err != nil {
		return err
	}
	if backend != droute.BackendOrdered {
		e.RouteBackend = string(backend)
	}
	e.RouteWorkers = o.routeWorkers
	e.RouteIters = o.routeIters

	var trace *metrics.Trace
	if tracePath != "" {
		tf, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer tf.Close()
		trace = metrics.NewTrace(tf)
		e.Metrics = trace
	}

	rep := &exper.BenchReport{
		Schema:      exper.BenchSchema,
		Generated:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Effort:      e.Name,
		Seed:        seed,
		Tracks:      tracks,
		Chains:      chains,
		CritWeight:  e.CritWeight,
		CritBias:    e.CritBias,
		CritDamping: e.CritDamping,

		// The report records the backend only when non-default, mirroring
		// the JSON omitempty contract so old baselines stay comparable.
		RouteBackend: e.RouteBackend,
		RouteIters:   e.RouteIters,
	}
	for _, name := range strings.Split(designCSV, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		fmt.Fprintf(os.Stderr, "bench: %s (effort %s, seed %d)...\n", name, e.Name, seed)
		row, err := exper.RunBenchmark(name, e, seed, tracks)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(os.Stderr, "bench: %s done in %.0f ms (cost %.1f, unrouted %d, critical path %.0f ps, %.1f allocs/move, %.0f B/move)\n",
			row.Design, row.WallMS, row.FinalCost, row.Unrouted, row.WCDPs, row.AllocsPerMove, row.BytesPerMove)
		rep.Rows = append(rep.Rows, row)
	}
	if trace != nil {
		if err := trace.Err(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}

	if out == "" {
		out = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	if out == "-" {
		if err := exper.WriteBenchReport(os.Stdout, rep); err != nil {
			return err
		}
	} else {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := exper.WriteBenchReport(f, rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %s\n", out)
	}

	if compare != "" {
		bf, err := os.Open(compare)
		if err != nil {
			return err
		}
		defer bf.Close()
		base, err := exper.ReadBenchReport(bf)
		if err != nil {
			return err
		}
		opt := exper.DefaultCompareOptions()
		opt.WallTol = wallTol
		if o.timingGate {
			opt = exper.TimingQualityCompareOptions()
		}
		if o.routeGate {
			opt = exper.RouteGateCompareOptions()
		}
		regs, err := exper.CompareBenchReports(base, rep, opt)
		if err != nil {
			return err
		}
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "bench: REGRESSION:", r)
			}
			return fmt.Errorf("%d regression(s) vs %s", len(regs), compare)
		}
		fmt.Fprintf(os.Stderr, "bench: no regressions vs %s\n", compare)
	}
	return nil
}

// Command perfbench is the repository's benchmark: it measures the layout
// engine and the serving stack end to end — netlist in, verified layout bytes
// out — and, in a traced run, layer by layer. BENCHMARK.json at the
// repository root lists its workloads and metrics; README.md in this
// directory defines every metric per workload and maps each layer metric to
// the end-to-end metric it should move.
//
// Workloads (inputs are generated from the fixed netgen profiles; -seed sets
// the annealing seeds and the serve-mix job list):
//
//	paper5       s1, cse, ex1, bw, s1a on 38-track channels
//	constrained  the same netlists on the starved Figure-6 instance
//	             (24 tracks, 3 vertical tracks per column)
//	big529       the hot phase of the Figure-7 design on 38 tracks
//	serve-mix    fpgaprd with a WAL store, an in-process and a fleet
//	             worker, two closed-loop clients, then restarts
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper5 --seed 1 --seconds 24 --trace 0
//	bash perfbench/run.sh -workload paper5,constrained,big529,serve-mix -seed 1
//	bash perfbench/run.sh -workload paper5,serve-mix -sets 2
//	bash perfbench/run.sh -workload big529 -trace 1 -trace-dir .bench_build/trace
//
// With one workload the run happens in this process and the last line of
// standard output is the JSON result: {"correct", "attempted", "failed",
// "metrics"}, the metrics being the end-to-end set untraced (-trace 0) and the
// per-layer set traced (-trace 1). With several workloads or -sets N, each
// workload runs in a fresh child process, sets alternate the workload order,
// and the command prints every metric per workload; with N > 1 it prints each
// metric's spread ((max-min)/median over the sets) against its bound and exits
// non-zero if any spread but setup_s's exceeds it. Every run checks its
// outputs; a failed check makes "correct" false and the exit code non-zero.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"time"

	"repro/internal/exper"
)

// runConfig is one measured run of a workload.
type runConfig struct {
	name   string
	seed   int64
	budget time.Duration // measurement time; a run may overrun it to finish its fewest passes
	work   string        // scratch directory, removed after the run
	tracer *tracer       // nil = untraced
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted int
	failures  []string
	values    map[string]float64
}

func newOutcome() outcome { return outcome{values: map[string]float64{}} }

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

type workload struct {
	name, why string
	run       func(runConfig) (outcome, error)
}

// The workloads' inputs and sizes; README.md explains the choices. Efforts
// are cut below fast effort so that a 24-second run holds several passes:
// medians over the passes then shrug off short stalls of a shared machine.
var (
	paper5 = engineWorkload{designs: exper.TableDesigns(), tracks: exper.DefaultTracks,
		moves: 1, temps: 80, setups: 3, hitReads: 20}
	constrained = engineWorkload{designs: exper.TableDesigns(), tracks: 24, vtracks: 3,
		moves: 1, temps: 80, setups: 3, hitReads: 20}
	big529 = engineWorkload{designs: []string{"big529"}, tracks: exper.DefaultTracks,
		moves: 1, temps: 10, repair: 1, setups: 3, hitReads: 50}
	serveMixJobs = serveMix{coldTiny: 400, repeats: 320, coldS1: 200,
		cancels: 8, diskHits: 80, restarts: 5, refKeys: 8}
)

// workloads returns the benchmark's workloads in their canonical order.
func workloads() []workload {
	return []workload{
		{"paper5", "the paper's designs on generous channels: routing converges early, so the timing update has its largest share", paper5.run},
		{"constrained", "the same netlists with routing starved: global routes fail, nets stay unrouted and repair runs", constrained.run},
		{"big529", "scale: the hot phase of the largest design, where per-move cost grows with net count and most moves retry stuck nets", big529.run},
		{"serve-mix", "the only workload for server, fleet, store and portfolio: small jobs, so admission, WAL, leases and caching show", serveMixJobs.run},
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the command-line settings.
type options struct {
	workloads []string
	seed      int64
	seconds   int
	trace     bool
	traceDir  string
	workDir   string
	sets      int
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var o options
	list := flag.String("workload", strings.Join(names, ","), "comma-separated workloads to run")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (non-negative): annealing seeds and the serve-mix job list")
	flag.IntVar(&o.seconds, "seconds", 24, "measurement time per workload run; a run does at least one pass (engine workloads: one per annealing seed)")
	trace := flag.Int("trace", 0, "1 = traced run: print per-layer metrics, write spans and a CPU profile")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "directory for the traced run's spans and CPU profile")
	flag.StringVar(&o.workDir, "work-dir", ".bench_build", "directory for scratch files (removed after each run)")
	flag.IntVar(&o.sets, "sets", 1, "run the workload list this many times, alternating order, and report spreads")
	flag.Parse()
	o.trace = *trace != 0
	o.workloads = strings.Split(*list, ",")
	if err := validate(&o, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var err error
	if len(o.workloads) == 1 && o.sets == 1 {
		err = runOne(o)
	} else {
		err = runMany(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func validate(o *options, trace int) error {
	for _, name := range o.workloads {
		if _, ok := lookup(name); !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	switch {
	case o.seed < 0:
		return fmt.Errorf("-seed must be non-negative")
	case o.seconds < 1:
		return fmt.Errorf("-seconds must be at least 1")
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace must be 0 or 1")
	case o.sets < 1:
		return fmt.Errorf("-sets must be at least 1")
	}
	return nil
}

// runOne measures one workload in this process and prints its result.
func runOne(o options) error {
	w, _ := lookup(o.workloads[0])
	rep, failures, err := measure(w, o)
	if err != nil {
		return err
	}
	for _, f := range failures {
		logf("%s: FAILED CHECK: %s", w.name, f)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d failed check(s)", w.name, rep.Failed)
	}
	return nil
}

// measure runs a workload untraced and returns the end-to-end report. With
// tracing it returns the per-layer report of a traced run instead, bracketed
// by two untraced half-length runs: trace.overhead_ratio compares the traced
// run's flow_wall_s with theirs, measured on either side of it so that a
// shared machine's slow spell does not pass for tracing cost.
func measure(w workload, o options) (report, []string, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return report{}, nil, err
	}
	work, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return report{}, nil, err
	}
	defer os.RemoveAll(work)
	rc := runConfig{name: w.name, seed: o.seed, budget: time.Duration(o.seconds) * time.Second, work: work}
	if !o.trace {
		plain, err := w.run(rc)
		if err != nil {
			return report{}, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rep, err := newReport(endToEnd, plain.values, plain.attempted, len(plain.failures))
		return rep, plain.failures, err
	}

	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return report{}, nil, err
	}
	spansPath, profilePath := traceFiles(o.traceDir, w.name, o.seed)
	tr := newTracer()
	var runs [3]outcome
	for i := range runs {
		rc := rc
		rc.budget /= 2
		var stopProfile func() error
		if i == 1 {
			rc.budget, rc.tracer = rc.budget*2, tr
			if stopProfile, err = profileCPU(profilePath); err != nil {
				return report{}, nil, err
			}
		}
		runs[i], err = w.run(rc)
		if stopProfile != nil {
			if perr := stopProfile(); err == nil {
				err = perr
			}
		}
		if err != nil {
			return report{}, nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	if err := tr.write(spansPath); err != nil {
		return report{}, nil, err
	}
	logf("%s: spans in %s, CPU profile in %s", w.name, spansPath, profilePath)
	traced := runs[1]
	untraced := (runs[0].values["flow_wall_s"] + runs[2].values["flow_wall_s"]) / 2
	traced.values["trace.overhead_ratio"] = traced.values["flow_wall_s"] / untraced
	if traced.values["process.peak_rss_mb"], err = peakRSSMB(); err != nil {
		return report{}, nil, err
	}
	var attempted int
	var failures []string
	for _, r := range runs {
		attempted += r.attempted
		failures = append(failures, r.failures...)
	}
	rep, err := newReport(perLayer, traced.values, attempted, len(failures))
	return rep, failures, err
}

// runMany runs each workload of each set in a child process and prints the
// metrics per workload, plus the spreads when there are several sets.
func runMany(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	results := map[string][]report{}
	var failed []string
	for set := 0; set < o.sets; set++ {
		order := slices.Clone(o.workloads)
		if set%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			rep, err := runChild(exe, name, o)
			if err != nil {
				failed = append(failed, fmt.Sprintf("%s (set %d): %v", name, set+1, err))
				continue
			}
			results[name] = append(results[name], rep)
		}
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, name := range o.workloads {
		reps := results[name]
		if len(reps) == 0 {
			continue
		}
		for _, d := range defs {
			vals := make([]float64, len(reps))
			for i, r := range reps {
				vals[i] = r.Metrics[d.Name].Value
			}
			fmt.Printf("%-12s %-30s %-11s", name, d.Name, d.Unit)
			for _, v := range vals {
				fmt.Printf(" %14.6g", v)
			}
			if len(vals) > 1 && d.Bound > 0 {
				s := spread(vals)
				verdict := "ok"
				switch {
				case d.Name == "setup_s":
					// A few milliseconds of set-up repeat only as a median
					// over many runs; its bound applies to that median.
					verdict = "not gated"
				case s > d.Bound:
					verdict = "OVER BOUND"
					failed = append(failed, fmt.Sprintf("%s %s spread %.3f > bound %.3f", name, d.Name, s, d.Bound))
				}
				fmt.Printf("   spread %.4f bound %.2f %s", s, d.Bound, verdict)
			}
			fmt.Println()
		}
		for i, r := range reps {
			if !r.Correct {
				failed = append(failed, fmt.Sprintf("%s (run %d): %d of %d failed", name, i+1, r.Failed, r.Attempted))
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d problem(s):\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}

// spread is (max-min)/median of a metric's values over the sets.
func spread(vals []float64) float64 {
	lo, hi := slices.Min(vals), slices.Max(vals)
	return ratio(hi-lo, median(vals))
}

// runChild runs one workload in a fresh process, so each gets clean GC state
// and its own peak RSS, and parses the JSON result on its last output line.
func runChild(exe, name string, o options) (report, error) {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", trace, "-trace-dir", o.traceDir, "-work-dir", o.workDir)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		if runErr != nil {
			return rep, runErr
		}
		return rep, fmt.Errorf("no result line: %w", err)
	}
	return rep, nil
}

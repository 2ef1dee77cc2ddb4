package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/exper"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricDefinitions(t *testing.T) {
	seen := map[string]bool{}
	largest := 0.0
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > largest {
			largest = d.Bound
		}
	}
	if setup := endToEnd[0]; setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" || setup.Bound < largest {
		t.Errorf("first end-to-end metric %+v, want setup_s in s, lower, with the largest bound", setup)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer %s has a bound", d.Name)
		}
	}
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONAgrees checks BENCHMARK.json against the workloads and
// metric tables both ways: same names in the same order, same units,
// directions and bounds.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"perfbench"}) {
		t.Errorf("paths %v, want [perfbench]", bf.Paths)
	}
	if !reflect.DeepEqual(bf.Command, []string{"bash", "perfbench/run.sh"}) {
		t.Errorf("command %v", bf.Command)
	}
	var names, whys []string
	for _, w := range workloads() {
		names = append(names, w.name)
		whys = append(whys, w.why)
	}
	for i, w := range bf.Workloads {
		if i >= len(names) || w.Name != names[i] || w.Why != whys[i] {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), want the benchmark's %v", i, w.Name, w.Why, names)
		}
	}
	if len(bf.Workloads) != len(names) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(names))
	}
	var got []metricDef
	for _, m := range bf.EndToEnd {
		got = append(got, metricDef(m))
	}
	if !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nin the benchmark:\n%v", got, endToEnd)
	}
	got = nil
	for _, m := range bf.PerLayer {
		got = append(got, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nin the benchmark:\n%v", got, perLayer)
	}
}

func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{400, 0.95}, {1000, 0.99}, {200, 0.95}, {199, 0.90}, {100, 0.90},
		{40, 0.75}, {20, 0.50}, {19, 1}, {5, 1}, {1, 1},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := tail(xs); got != 5 {
		t.Errorf("tail of 5 samples = %v, want the maximum 5", got)
	}
	if got := quantile([]float64{0, 10}, 0.95); got != 9.5 {
		t.Errorf("quantile interpolation = %v, want 9.5", got)
	}
}

func TestPlanDeterministic(t *testing.T) {
	m := serveMixJobs
	p1, p2 := m.plan(3, 0), m.plan(3, 0)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("same seed gave different job lists")
	}
	if reflect.DeepEqual(p1, m.plan(4, 0)) || reflect.DeepEqual(p1, m.plan(3, 1)) {
		t.Fatal("a different seed or pass gave the same job list")
	}
	if len(p1.a) != m.coldTiny+m.repeats || len(p1.b) != m.coldS1+4+m.cancels {
		t.Fatalf("client a has %d requests, b has %d", len(p1.a), len(p1.b))
	}
	for i, ref := range p1.cold[m.coldTiny : m.coldTiny+refS1] {
		if p1.b[i].seed != ref.seed {
			t.Fatalf("client b's request %d is not the reference s1 job %s", i, coldKey(ref))
		}
	}
	seen := map[int]bool{}
	for _, r := range p1.a {
		switch r.kind {
		case kindCold:
			seen[int(r.seed)] = true
		case kindHit:
			if !seen[int(p1.cold[r.orig].seed)] {
				t.Fatalf("repeat of cold job %d comes before it", r.orig)
			}
		}
	}
	disk := map[int]bool{}
	for _, list := range p1.life2 {
		for _, r := range list {
			disk[r.orig] = true
		}
	}
	if len(disk) != m.diskHits {
		t.Fatalf("life 2 repeats %d distinct jobs, want %d", len(disk), m.diskHits)
	}
}

// smallMix is serve-mix at reduced size.
var smallMix = serveMix{coldTiny: 40, repeats: 10, coldS1: 40, cancels: 2, diskHits: 4, restarts: 1, refKeys: 4}

// TestServeMixOutlastsPassTimeout runs the mix for longer than one pass may
// take: the time limit applies to each pass, never to the whole run, so any
// -seconds works.
func TestServeMixOutlastsPassTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("serves jobs")
	}
	// One pass, to size the timeout: four times a pass, but half the run.
	t0 := time.Now()
	if _, err := smallMix.run(runConfig{name: "serve-mix", seed: 2, work: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	defer func(d time.Duration) { passTimeout = d }(passTimeout)
	passTimeout = 4 * time.Since(t0)
	t0 = time.Now()
	out, err := smallMix.run(runConfig{name: "serve-mix", seed: 2, budget: 2 * passTimeout, work: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.failures) > 0 {
		t.Fatalf("%d of %d failed: %v", len(out.failures), out.attempted, out.failures)
	}
	if el := time.Since(t0); el <= passTimeout {
		t.Fatalf("run took %v, not longer than the pass timeout %v", el, passTimeout)
	}
}

// smokeOptions runs a workload for its fewest passes into temporary
// directories.
func smokeOptions(t *testing.T, trace bool) options {
	return options{seed: 2, seconds: 0, trace: trace, workDir: t.TempDir(), traceDir: t.TempDir()}
}

// TestSmoke runs every workload at reduced size, untraced and traced, and
// requires every check to pass and every metric to be printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the optimizer")
	}
	shrink := func(w engineWorkload) engineWorkload {
		w.designs = w.designs[:1]
		w.moves, w.temps, w.setups, w.hitReads = 1, 4, 2, 3
		return w
	}
	small := map[string]func(runConfig) (outcome, error){
		"paper5":      shrink(paper5).run,
		"constrained": shrink(constrained).run,
		"big529":      shrink(big529).run,
		"serve-mix":   smallMix.run,
	}
	for _, w := range workloads() {
		w.run = small[w.name]
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				rep, failures, err := measure(w, smokeOptions(t, trace))
				if err != nil {
					t.Fatalf("trace %v: %v", trace, err)
				}
				if !rep.Correct || rep.Attempted == 0 || len(failures) > 0 {
					t.Errorf("trace %v: %d of %d failed: %v", trace, rep.Failed, rep.Attempted, failures)
				}
			}
		})
	}
}

// TestBaselineHashes proves the benchmark drives the same engine as the
// committed BENCH_baseline.json: at seed 1 and the baseline's fast effort,
// paper5's flow lays out s1 and cse with exactly the recorded hashes.
func TestBaselineHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two fast-effort flows")
	}
	f, err := os.Open("../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := exper.ReadBenchReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if base.Effort != "fast" || base.Seed != 1 || base.Tracks != paper5.tracks || base.Chains != 1 {
		t.Fatalf("baseline configuration %s/seed %d/%d tracks/%d chains does not match paper5",
			base.Effort, base.Seed, base.Tracks, base.Chains)
	}
	want := map[string]string{}
	for _, r := range base.Rows {
		want[r.Design] = r.LayoutHash
	}
	w := paper5
	w.moves, w.temps = exper.FastEffort().CoreMovesPerCell, exper.FastEffort().CoreMaxTemps
	for _, d := range []string{"s1", "cse"} {
		f, err := w.flow(d, 1, nil, nil, d)
		if err != nil {
			t.Fatal(err)
		}
		if f.hash != want[d] {
			t.Errorf("%s: layout hash %s, baseline %s", d, f.hash, want[d])
		}
	}
}

func TestValidate(t *testing.T) {
	ok := options{workloads: []string{"paper5"}, seconds: 1, sets: 1}
	if err := validate(&ok, 0); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	for name, c := range map[string]struct {
		o     options
		trace int
	}{
		"workload": {options{workloads: []string{"paper6"}, seconds: 1, sets: 1}, 0},
		"seed":     {options{workloads: []string{"paper5"}, seed: -1, seconds: 1, sets: 1}, 0},
		"seconds":  {options{workloads: []string{"paper5"}, sets: 1}, 0},
		"trace":    {options{workloads: []string{"paper5"}, seconds: 1, sets: 1}, 2},
		"sets":     {options{workloads: []string{"paper5"}, seconds: 1}, 0},
	} {
		if err := validate(&c.o, c.trace); err == nil {
			t.Errorf("bad %s accepted", name)
		}
	}
}

package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef declares one printed metric. The two tables below are the source
// of truth that BENCHMARK.json mirrors; TestBenchmarkJSONAgrees keeps them in
// step. Bound is the share of the parent's median by which an end-to-end
// metric may worsen before a change counts as a regression (zero for
// per-layer metrics, which carry no bound).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the engine or the service sees, printed
// by every workload in an untraced run. README.md gives each one's definition
// per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"flow_wall_s", "s", "lower", 0.25},
	{"moves_per_s", "1/s", "higher", 0.25},
	{"cold_p50_ms", "ms", "lower", 0.25},
	{"hit_p50_ms", "ms", "lower", 0.25},
	{"critical_path_ps", "ps", "lower", 0.1},
	{"routed_pct", "%", "higher", 0.1},
}

// perLayer are the single-layer metrics of a traced run. Each is defined on
// every workload; serving-stack counters read zero on the engine workloads,
// which never touch the service.
var perLayer = []metricDef{
	{"netgen.generate_ms", "ms", "lower", 0},
	{"core.new_ms", "ms", "lower", 0},
	{"groute.routeall_ms", "ms", "lower", 0},
	{"droute.routeall_ms", "ms", "lower", 0},
	{"droute.init_failed", "count", "lower", 0},
	{"anneal.wall_s", "s", "lower", 0},
	{"anneal.moves", "count", "higher", 0},
	{"anneal.accept_ratio", "ratio", "higher", 0},
	{"anneal.unrouted_wall_share", "ratio", "lower", 0},
	{"core.ripups_per_move", "1/move", "lower", 0},
	{"groute.attempts_per_move", "1/move", "lower", 0},
	{"groute.fail_ratio", "ratio", "lower", 0},
	{"droute.attempts_per_move", "1/move", "lower", 0},
	{"droute.fail_ratio", "ratio", "lower", 0},
	{"timing.net_updates_per_move", "1/move", "lower", 0},
	{"timing.cells_relaxed_per_move", "1/move", "lower", 0},
	{"repair.wall_ms", "ms", "lower", 0},
	{"repair.moves", "count", "lower", 0},
	{"repair.fixed", "count", "higher", 0},
	{"layio.write_ms", "ms", "lower", 0},
	{"timing.verify_agreement", "ratio", "higher", 0},
	{"request.cold_tail_ms", "ms", "lower", 0},
	{"request.hit_tail_ms", "ms", "lower", 0},
	{"request.prepare_share", "ratio", "lower", 0},
	{"request.queue_share", "ratio", "lower", 0},
	{"request.run_share", "ratio", "higher", 0},
	{"request.deliver_share", "ratio", "lower", 0},
	{"server.optimizer_runs", "count", "lower", 0},
	{"server.cache_hit_responses", "count", "higher", 0},
	{"fleet.remote_share", "ratio", "higher", 0},
	{"fleet.leases_granted", "count", "higher", 0},
	{"fleet.reenqueues", "count", "lower", 0},
	{"store.wal_records_per_job", "records/job", "lower", 0},
	{"store.wal_bytes_per_job", "B/job", "lower", 0},
	{"store.disk_hits", "count", "higher", 0},
	{"portfolio.dedup_hits", "count", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.span_coverage", "ratio", "higher", 0},
	{"process.peak_rss_mb", "MB", "lower", 0},
}

// metricValue is one printed measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a workload run prints as its last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newReport fills a report from raw values keyed by metric name, taking each
// metric's unit from defs. A metric of defs missing from values is a bug in
// the workload, reported as an error rather than printed as zero.
func newReport(defs []metricDef, values map[string]float64, attempted, failed int) (report, error) {
	r := report{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return report{}, fmt.Errorf("workload did not measure %s", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return report{}, fmt.Errorf("%s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating linearly
// between the closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLevels are the percentiles a tail metric may report, highest first.
var tailLevels = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// tailLevel returns the highest percentile of tailLevels that leaves at least
// ten of n samples beyond it, or 1 (the maximum) when none does.
func tailLevel(n int) float64 {
	for _, q := range tailLevels {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			return q
		}
	}
	return 1
}

// tail is the tail latency of xs at tailLevel(len(xs)).
func tail(xs []float64) float64 { return quantile(xs, tailLevel(len(xs))) }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads this process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/metrics"
)

// span is one timed interval of a traced run. Spans of one design run or one
// job share Run; Parent is the ID of the span whose call caused this one (0
// for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced state: every method is a no-op that reads no clock.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(run, name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// start opens a span that stop closes.
func (t *tracer) start(run, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(run, name, parent, now, now)
}

func (t *tracer) stop(id int) {
	if t == nil || id == 0 {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerCollector is the collector of a traced run. Its metrics.Summary sums
// the engine's move, router and STA counters and its phase times; on top, the
// collector adds up the anneal time of temperatures that end with unrouted
// nets, and turns each phase record into a span under the benchmark span that
// made the call (set with within before the call; no spans with a nil tracer).
type layerCollector struct {
	*metrics.Summary
	tr *tracer

	mu                     sync.Mutex
	run                    string
	parent                 int
	tempWall, unroutedWall time.Duration
}

func newLayerCollector(tr *tracer) *layerCollector {
	return &layerCollector{Summary: metrics.NewSummary(), tr: tr}
}

func (c *layerCollector) within(run string, parent int) {
	c.mu.Lock()
	c.run, c.parent = run, parent
	c.mu.Unlock()
}

func (c *layerCollector) RecordTemp(r metrics.TempRecord) {
	c.Summary.RecordTemp(r)
	c.mu.Lock()
	c.tempWall += r.Elapsed
	if r.D > 0 {
		c.unroutedWall += r.Elapsed
	}
	c.mu.Unlock()
}

func (c *layerCollector) RecordPhase(r metrics.PhaseRecord) {
	c.Summary.RecordPhase(r)
	if c.tr == nil {
		return
	}
	end := time.Now()
	c.mu.Lock()
	run, parent := c.run, c.parent
	c.mu.Unlock()
	c.tr.add(run, r.Phase.String(), parent, end.Add(-r.Elapsed), end)
}

var _ metrics.Collector = (*layerCollector)(nil)

// phaseByName maps a phase's schema name (as the service streams it) back to
// the phase.
var phaseByName = func() map[string]metrics.Phase {
	m := make(map[string]metrics.Phase, metrics.NumPhases)
	for p := metrics.Phase(0); p < metrics.NumPhases; p++ {
		m[p.String()] = p
	}
	return m
}()

// layerValues derives the counter-based per-layer metrics, with phase times
// per pass over the given number of passes.
func (c *layerCollector) layerValues(out map[string]float64, passes int) {
	t := c.Totals()
	perPass := func(p metrics.Phase) time.Duration { return t.PhaseDur[p] / time.Duration(passes) }
	moves := float64(t.Moves)
	out["anneal.accept_ratio"] = ratio(float64(t.Accepted), moves)
	c.mu.Lock()
	out["anneal.unrouted_wall_share"] = ratio(float64(c.unroutedWall), float64(c.tempWall))
	c.mu.Unlock()
	out["core.ripups_per_move"] = ratio(float64(t.RipUps), moves)
	out["groute.attempts_per_move"] = ratio(float64(t.GRouteAttempts), moves)
	out["groute.fail_ratio"] = ratio(float64(t.GRouteFails), float64(t.GRouteAttempts))
	out["droute.attempts_per_move"] = ratio(float64(t.DRouteAttempts), moves)
	out["droute.fail_ratio"] = ratio(float64(t.DRouteFails), float64(t.DRouteAttempts))
	out["timing.net_updates_per_move"] = ratio(float64(t.STAUpdates), moves)
	out["timing.cells_relaxed_per_move"] = ratio(float64(t.STACellsRelaxed), moves)
	out["core.new_ms"] = ms(perPass(metrics.PhaseInit))
	out["groute.routeall_ms"] = ms(perPass(metrics.PhaseGlobalRoute))
	out["droute.routeall_ms"] = ms(perPass(metrics.PhaseDetailRoute))
	out["anneal.wall_s"] = perPass(metrics.PhaseAnneal).Seconds()
	out["repair.wall_ms"] = ms(perPass(metrics.PhaseRepair))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceFiles names the artifacts of one traced run.
func traceFiles(dir, workload string, seed int64) (spans, profile string) {
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	return base + ".spans.jsonl", base + ".cpu.pprof"
}

// profileCPU starts a CPU profile into path and returns the function that
// stops it and reports any error writing the file.
func profileCPU(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

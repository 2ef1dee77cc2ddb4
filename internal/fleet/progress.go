package fleet

import (
	"sync"

	"repro/internal/metrics"
)

// progressCap bounds a ProgressBuffer between drains. A stalled heartbeat
// loop must not let a chatty optimizer run grow the buffer without bound;
// past the cap the oldest events are dropped — the coordinator's SSE stream
// loses some mid-run detail, never the terminal records, because the final
// drain rides the complete call.
const progressCap = 4096

// ProgressBuffer is the worker-side metrics.Collector: optimizer progress
// accumulates here between heartbeats, and Drain hands the batch to the
// wire. Safe for concurrent use — parallel annealing chains record into it
// while the heartbeat loop drains.
type ProgressBuffer struct {
	mu      sync.Mutex
	events  []ProgressEvent
	dropped int64
}

// NewProgressBuffer builds an empty buffer bounded to progressCap events.
func NewProgressBuffer() *ProgressBuffer { return &ProgressBuffer{} }

func (b *ProgressBuffer) append(ev ProgressEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.events) >= progressCap {
		b.events = b.events[1:]
		b.dropped++
	}
	b.events = append(b.events, ev)
}

// RecordTemp implements metrics.Collector.
func (b *ProgressBuffer) RecordTemp(r metrics.TempRecord) {
	b.append(ProgressEvent{Type: "temp", Temp: &r})
}

// RecordPhase implements metrics.Collector.
func (b *ProgressBuffer) RecordPhase(r metrics.PhaseRecord) {
	b.append(ProgressEvent{Type: "phase", Phase: &PhaseProgress{
		Name: r.Phase.String(), ElapsedNS: int64(r.Elapsed),
	}})
}

// RecordChain implements metrics.Collector.
func (b *ProgressBuffer) RecordChain(r metrics.ChainRecord) {
	b.append(ProgressEvent{Type: "chain", Chain: &r})
}

// Drain removes and returns everything buffered so far.
func (b *ProgressBuffer) Drain() []ProgressEvent {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.events
	b.events = nil
	return out
}

var _ metrics.Collector = (*ProgressBuffer)(nil)

// Event streaming: each job owns an eventHub, an ordered, append-only
// history of the job's state transitions and of the progress its worker
// ships on heartbeats, broadcast to any number of SSE subscribers.
// Subscribers replay the history from the beginning and then follow live
// events; the hub is sealed when the job reaches a terminal state, which
// ends every stream.
package server

import (
	"sync"

	"repro/internal/fleet"
	"repro/internal/metrics"
)

// Event is one element of a job's progress stream. Type is one of "state",
// "phase", "temp" or "chain" — plus, on group streams, "member" (one member's
// state transition) and "champion" (the portfolio's final selection); exactly
// one payload field is set.
type Event struct {
	Seq    int                  `json:"seq"`
	Type   string               `json:"type"`
	State  JobState             `json:"state,omitempty"`
	Phase  *PhaseEvent          `json:"phase,omitempty"`
	Temp   *metrics.TempRecord  `json:"temp,omitempty"`
	Chain  *metrics.ChainRecord `json:"chain,omitempty"`
	Member *MemberEvent         `json:"member,omitempty"`
}

// MemberEvent reports one group member on an aggregated batch/portfolio
// stream.
type MemberEvent struct {
	Index int      `json:"index"`
	Job   string   `json:"job"`
	State JobState `json:"state"`
}

// PhaseEvent reports one finished flow phase, exactly as the worker shipped
// it.
type PhaseEvent = fleet.PhaseProgress

// eventHub is the per-job progress log. It is safe for concurrent use:
// heartbeat handlers append while SSE handlers read, all under one mutex.
// History is append-only, so slices handed to readers stay valid without
// copying.
type eventHub struct {
	mu       sync.Mutex
	events   []Event
	sealed   bool
	wake     chan struct{} // closed and replaced on every append/seal
	lastTemp *metrics.TempRecord
}

func newEventHub() *eventHub {
	return &eventHub{wake: make(chan struct{})}
}

func (h *eventHub) append(ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sealed {
		return
	}
	if ev.Temp != nil {
		h.lastTemp = ev.Temp
	}
	ev.Seq = len(h.events)
	h.events = append(h.events, ev)
	close(h.wake)
	h.wake = make(chan struct{})
}

// state records a job state transition as a stream event.
func (h *eventHub) state(s JobState) {
	h.append(Event{Type: "state", State: s})
}

// finish seals the stream: no further events are accepted and every waiting
// subscriber is released.
func (h *eventHub) finish() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sealed {
		return
	}
	h.sealed = true
	close(h.wake)
}

// next returns the events at and after cursor, whether the stream is sealed,
// and a channel that is closed at the next append (or already closed once
// sealed). The returned slice aliases the append-only history and must not be
// mutated.
func (h *eventHub) next(cursor int) (evs []Event, sealed bool, wake <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if cursor < len(h.events) {
		evs = h.events[cursor:len(h.events):len(h.events)]
	}
	return evs, h.sealed, h.wake
}

// latestTemp returns the most recent temperature record (nil before the
// first). Records are never mutated once appended.
func (h *eventHub) latestTemp() *metrics.TempRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastTemp
}

package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/exper"
	"repro/internal/netlist"
)

// TestCacheKeyCanonicalization pins the dedup property of the cache key: a
// named design and the equivalent inline netlist hash identically, and every
// result-affecting config field feeds the key.
func TestCacheKeyCanonicalization(t *testing.T) {
	named, err := buildSpec(JobRequest{Design: "tiny"})
	if err != nil {
		t.Fatal(err)
	}

	nl, err := exper.Design("tiny")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netlist.WriteNet(&buf, nl); err != nil {
		t.Fatal(err)
	}
	inline, err := buildSpec(JobRequest{Netlist: buf.String()})
	if err != nil {
		t.Fatal(err)
	}
	if named.key != inline.key {
		t.Errorf("named vs inline key mismatch:\n%s\n%s", named.key, inline.key)
	}

	seeded, err := buildSpec(JobRequest{Design: "tiny", Config: JobConfig{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.key == named.key {
		t.Error("seed change did not change the cache key")
	}

	tracks, err := buildSpec(JobRequest{Design: "tiny", Tracks: 24})
	if err != nil {
		t.Fatal(err)
	}
	if tracks.key == named.key {
		t.Error("tracks change did not change the cache key")
	}

	// Criticality knobs are result-affecting: enabling the term changes the
	// key, and every sub-knob feeds it; leaving it off preserves the
	// pre-extension key so existing cached results stay addressable.
	crit, err := buildSpec(JobRequest{Design: "tiny", Config: JobConfig{CritWeight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if crit.key == named.key {
		t.Error("crit_weight did not change the cache key")
	}
	critBias, err := buildSpec(JobRequest{Design: "tiny", Config: JobConfig{CritWeight: 1, CritBias: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	critDamp, err := buildSpec(JobRequest{Design: "tiny", Config: JobConfig{CritWeight: 1, CritDamping: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if critBias.key == crit.key || critDamp.key == crit.key || critBias.key == critDamp.key {
		t.Error("crit_bias/crit_damping did not feed the cache key")
	}

	// Route-backend knobs: selecting a non-default backend changes the key,
	// its iteration cap feeds it, and the default (empty or explicit
	// "ordered") preserves the pre-extension key so existing cached results
	// stay addressable.
	ordered, err := buildSpec(JobRequest{Design: "tiny", Config: JobConfig{RouteBackend: "ordered"}})
	if err != nil {
		t.Fatal(err)
	}
	if ordered.key != named.key {
		t.Error("explicit \"ordered\" backend changed the cache key")
	}
	lag, err := buildSpec(JobRequest{Design: "tiny", Config: JobConfig{RouteBackend: "lagrange"}})
	if err != nil {
		t.Fatal(err)
	}
	if lag.key == named.key {
		t.Error("route_backend did not change the cache key")
	}
	lagIters, err := buildSpec(JobRequest{Design: "tiny", Config: JobConfig{RouteBackend: "lagrange", RouteIters: 12}})
	if err != nil {
		t.Fatal(err)
	}
	if lagIters.key == lag.key {
		t.Error("route_iters did not feed the cache key")
	}
	neg, err := buildSpec(JobRequest{Design: "tiny", Config: JobConfig{RouteBackend: "negotiated"}})
	if err != nil {
		t.Fatal(err)
	}
	if neg.key == lag.key || neg.key == named.key {
		t.Error("negotiated backend key not distinct")
	}
}

// TestParseJobRequestValidation covers the decoder's reject paths.
func TestParseJobRequestValidation(t *testing.T) {
	for _, tc := range []struct {
		name, body string
	}{
		{"neither source", `{}`},
		{"both sources", `{"design":"tiny","netlist":"x"}`},
		{"unknown design", `{"design":"zzz"}`},
		{"format on design", `{"design":"tiny","format":"net"}`},
		{"unknown format", `{"netlist":"x","format":"edif"}`},
		{"unparsable netlist", `{"netlist":"garbage"}`},
		{"tracks low", `{"design":"tiny","tracks":2}`},
		{"tracks high", `{"design":"tiny","tracks":9999}`},
		{"negative seed", `{"design":"tiny","config":{"seed":-1}}`},
		{"chains high", `{"design":"tiny","config":{"chains":64}}`},
		{"temps high", `{"design":"tiny","config":{"max_temps":100000}}`},
		{"unknown field", `{"design":"tiny","nope":true}`},
		{"crit weight negative", `{"design":"tiny","config":{"crit_weight":-1}}`},
		{"crit weight high", `{"design":"tiny","config":{"crit_weight":1000}}`},
		{"crit bias high", `{"design":"tiny","config":{"crit_weight":1,"crit_bias":1.5}}`},
		{"crit damping 1", `{"design":"tiny","config":{"crit_weight":1,"crit_damping":1}}`},
		{"crit bias without weight", `{"design":"tiny","config":{"crit_bias":0.5}}`},
		{"unknown route backend", `{"design":"tiny","config":{"route_backend":"pathfinder"}}`},
		{"route iters without backend", `{"design":"tiny","config":{"route_iters":8}}`},
		{"route iters high", `{"design":"tiny","config":{"route_backend":"lagrange","route_iters":9999}}`},
		{"retired workers field", `{"design":"tiny","config":{"workers":2}}`},
		{"retired route workers field", `{"design":"tiny","config":{"route_backend":"lagrange","route_workers":4}}`},
		{"trailing data", `{"design":"tiny"} {"x":1}`},
		{"not an object", `42`},
	} {
		if _, err := parseJobRequest([]byte(tc.body)); err == nil {
			t.Errorf("%s: accepted %s", tc.name, tc.body)
		}
	}
	for _, body := range []string{
		`{"design":"tiny","tracks":24,"config":{"seed":9,"chains":2}}`,
		`{"design":"tiny","config":{"route_backend":"lagrange","route_iters":12}}`,
		`{"design":"tiny","config":{"route_backend":"negotiated"}}`,
	} {
		if _, err := parseJobRequest([]byte(body)); err != nil {
			t.Errorf("valid request rejected: %v (%s)", err, body)
		}
	}
}

// TestEventHubReplayAndFollow checks the hub's contract: ordered sequence
// numbers, full replay from any cursor, wake on append, and sealing.
func TestEventHubReplayAndFollow(t *testing.T) {
	h := newEventHub()
	h.state(StateQueued)
	h.state(StateRunning)

	evs, sealed, wake := h.next(0)
	if len(evs) != 2 || sealed {
		t.Fatalf("replay: %d events, sealed %v", len(evs), sealed)
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}

	done := make(chan struct{})
	go func() {
		<-wake
		close(done)
	}()
	h.state(StateDone)
	<-done

	evs, _, _ = h.next(2)
	if len(evs) != 1 || evs[0].State != StateDone {
		t.Fatalf("incremental read: %+v", evs)
	}

	h.finish()
	if _, sealed, _ := h.next(3); !sealed {
		t.Error("hub not sealed after finish")
	}
	h.state(StateFailed) // must be ignored
	if evs, _, _ := h.next(0); len(evs) != 3 {
		t.Errorf("append after seal: %d events, want 3", len(evs))
	}
}

// TestResultCacheEviction checks FIFO eviction and the hit/miss counters.
func TestResultCacheEviction(t *testing.T) {
	c := newResultCache(2, nil)
	r := &JobResult{}
	c.put("a", r)
	c.put("b", r)
	c.put("c", r) // evicts a
	if _, ok := c.get("a"); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := c.get("b"); !ok {
		t.Error("entry b evicted early")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("entry c missing")
	}
	st := c.stats()
	if st.Entries != 2 || st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 entries, 2 hits, 1 miss", st)
	}
}

// TestJobStateMachine drives the transitions directly.
func TestJobStateMachine(t *testing.T) {
	spec, err := buildSpec(JobRequest{Design: "tiny"})
	if err != nil {
		t.Fatal(err)
	}

	j := newJob("j1", spec)
	if j.State() != StateQueued {
		t.Fatalf("fresh job state %s", j.State())
	}
	if !j.beginRunning() {
		t.Fatal("beginRunning refused a queued job")
	}
	if j.beginRunning() {
		t.Fatal("beginRunning accepted a running job")
	}
	j.finishTerminal(StateDone, &JobResult{Layout: []byte("x")}, "")
	if j.State() != StateDone {
		t.Fatalf("state %s after finish", j.State())
	}
	if j.requestCancel() {
		t.Error("cancel of a done job reported an effect")
	}
	j.finishTerminal(StateFailed, nil, "late") // terminal is sticky
	if j.State() != StateDone {
		t.Error("terminal state was overwritten")
	}

	// Queued job cancels immediately; the worker then skips it.
	q := newJob("j2", spec)
	if !q.requestCancel() {
		t.Error("cancel of a queued job reported no effect")
	}
	if q.State() != StateCanceled {
		t.Fatalf("queued job state %s after cancel", q.State())
	}
	if q.beginRunning() {
		t.Error("worker could start a canceled job")
	}

	// Running job: cancel flags it for the worker's next heartbeat, and the
	// worker's completion finishes it.
	r := newJob("j3", spec)
	r.beginRunning()
	if !r.requestCancel() {
		t.Error("cancel of a running job reported no effect")
	}
	if !r.cancelRequested() {
		t.Error("running job not flagged for cancellation")
	}
	if r.requestCancel() {
		t.Error("second cancel reported an effect")
	}
	r.finishTerminal(StateCanceled, nil, "")
	if r.State() != StateCanceled {
		t.Fatalf("state %s, want canceled", r.State())
	}
}

// TestStatusJSONShape pins the wire contract clients script against.
func TestStatusJSONShape(t *testing.T) {
	spec, err := buildSpec(JobRequest{Design: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	j := newJob("j9", spec)
	b, err := json.Marshal(j.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"id", "state", "design", "cells", "nets", "cache_key", "created"} {
		if _, ok := m[k]; !ok {
			t.Errorf("status JSON missing %q: %s", k, b)
		}
	}
	if m["state"] != "queued" || m["design"] != "tiny" {
		t.Errorf("status JSON fields: %s", b)
	}
}

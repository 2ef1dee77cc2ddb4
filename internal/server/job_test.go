package server

import (
	"bytes"
	"encoding/json"
	"strings"
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

	// The criticality weight is result-affecting: enabling the term changes
	// the key; leaving it off preserves the pre-extension key so existing
	// cached results stay addressable.
	crit, err := buildSpec(JobRequest{Design: "tiny", Config: JobConfig{CritWeight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if crit.key == named.key {
		t.Error("crit_weight did not change the cache key")
	}

	// Route backend: selecting a non-default backend changes the key, and
	// the default (empty or explicit "ordered") preserves the pre-extension
	// key so existing cached results stay addressable.
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
	neg, err := buildSpec(JobRequest{Design: "tiny", Config: JobConfig{RouteBackend: "negotiated"}})
	if err != nil {
		t.Fatal(err)
	}
	if neg.key == lag.key || neg.key == named.key {
		t.Error("negotiated backend key not distinct")
	}
}

// TestCacheKeyPinned pins the exact key bytes across versions: a changed
// key orphans every result cached under the old one. The expected values
// were computed before crit_bias, crit_damping and route_iters were
// retired, so they also prove the retirement kept every accepted request's
// key.
func TestCacheKeyPinned(t *testing.T) {
	for _, tc := range []struct{ body, key string }{
		{`{"design":"tiny"}`,
			"8cde3001828e555f2280ca5b248af964317f32de303a0335cef512b1afb10775"},
		{`{"design":"tiny","tracks":30,"config":{"seed":7,"moves_per_cell":5,"max_temps":20,"chains":2,"sync_temps":4,"range_limit":true,"disable_timing":true}}`,
			"9e2b16a2f5c512770583df47286947668051f7779a7896421c5f0f235f2f2d06"},
		{`{"design":"tiny","config":{"crit_weight":1}}`,
			"4ba101346f723c76075e28caca0e58cd39da5add821a4f5fb8b84361fa915c22"},
		{`{"design":"tiny","config":{"seed":3,"crit_weight":0.5}}`,
			"1dc79e0da96fcc44429a2eccf1cf8583ebc7ba408e97a875294941d0aaf5ac7f"},
		{`{"design":"tiny","config":{"route_backend":"negotiated"}}`,
			"9053d80ed00b5407190f7ceb7f44a38e7d274585f3c75ef3abfc99e236f7ae2b"},
		{`{"design":"tiny","config":{"route_backend":"lagrange"}}`,
			"d368f1ee06147047296ac522e119786fdb7e1359b022f25369d18b4acb1586b6"},
		{`{"design":"tiny","config":{"route_backend":"ordered"}}`,
			"8cde3001828e555f2280ca5b248af964317f32de303a0335cef512b1afb10775"},
		{`{"design":"s1","priority":"high","config":{"seed":2,"crit_weight":2,"route_backend":"lagrange"}}`,
			"3de91db108af61df1eff0aa8bf0b4cac54853d5c060518495707ea9f1c5f30bb"},
	} {
		spec, err := parseJobRequest([]byte(tc.body))
		if err != nil {
			t.Errorf("%s: %v", tc.body, err)
			continue
		}
		if spec.key != tc.key {
			t.Errorf("%s: key %s, want %s", tc.body, spec.key, tc.key)
		}
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
		{"unknown route backend", `{"design":"tiny","config":{"route_backend":"pathfinder"}}`},
		{"retired workers field", `{"design":"tiny","config":{"workers":2}}`},
		{"retired route workers field", `{"design":"tiny","config":{"route_backend":"lagrange","route_workers":4}}`},
		{"retired crit bias field", `{"design":"tiny","config":{"crit_weight":1,"crit_bias":0.25}}`},
		{"retired crit damping field", `{"design":"tiny","config":{"crit_weight":1,"crit_damping":0.6}}`},
		{"retired route iters field", `{"design":"tiny","config":{"route_backend":"lagrange","route_iters":12}}`},
		{"trailing data", `{"design":"tiny"} {"x":1}`},
		{"not an object", `42`},
	} {
		if _, err := parseJobRequest([]byte(tc.body)); err == nil {
			t.Errorf("%s: accepted %s", tc.name, tc.body)
		}
	}
	const unknown = `unknown netlist format "edif" (want net, blif or xnf)`
	if _, err := parseJobRequest([]byte(`{"netlist":"x","format":"edif"}`)); err == nil || !strings.Contains(err.Error(), unknown) {
		t.Errorf("unknown format: error %v, want it to contain %s", err, unknown)
	}
	for _, body := range []string{
		`{"design":"tiny","tracks":24,"config":{"seed":9,"chains":2}}`,
		`{"design":"tiny","config":{"route_backend":"lagrange"}}`,
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

	j := newJob(spec, "", nil)
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
	q := newJob(spec, "", nil)
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
	r := newJob(spec, "", nil)
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
	j := newJob(spec, "", nil)
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

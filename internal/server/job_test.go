package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/exper"
	"repro/internal/netgen"
	"repro/internal/netlist"
)

// TestCacheKeyCanonicalization pins the dedup property of the cache key: a
// named design and the equivalent inline netlist hash identically, for every
// built-in design, and every result-affecting config field feeds the key.
func TestCacheKeyCanonicalization(t *testing.T) {
	for _, name := range netgen.Profiles() {
		named, err := buildSpec(JobRequest{Design: name})
		if err != nil {
			t.Fatal(err)
		}
		inline, err := buildSpec(JobRequest{Netlist: string(writeNet(t, name))})
		if err != nil {
			t.Fatal(err)
		}
		if named.key != inline.key {
			t.Errorf("%s: named vs inline key mismatch:\n%s\n%s", name, named.key, inline.key)
		}
	}

	named, err := buildSpec(JobRequest{Design: "tiny"})
	if err != nil {
		t.Fatal(err)
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

// writeNet generates the named built-in design afresh and returns its
// canonical serialization.
func writeNet(t testing.TB, name string) []byte {
	t.Helper()
	nl, err := exper.Design(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netlist.WriteNet(&buf, nl); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCacheKeyPinned pins the exact key bytes across versions: a changed
// key orphans every result cached under the old one. The expected values of
// the serial rows (chains ≤ 1) were computed before range_limit, crit_bias,
// crit_damping, route_iters and sync_temps were retired, so they also prove
// the retirement kept every accepted request's key. The chains > 1 row was
// computed after parallel chains began to rank by portfolio.Score, which
// changed its layout and so, on purpose, its key.
func TestCacheKeyPinned(t *testing.T) {
	for _, tc := range []struct{ body, key string }{
		{`{"design":"tiny"}`,
			"8cde3001828e555f2280ca5b248af964317f32de303a0335cef512b1afb10775"},
		{`{"design":"tiny","config":{"chains":1}}`,
			"26f9905a63b5fda4d6e534fc61606692691660b8a26ef8d8ac19be3cbcc94881"},
		{`{"design":"tiny","tracks":30,"config":{"seed":7,"moves_per_cell":5,"max_temps":20,"chains":2,"disable_timing":true}}`,
			"a5d9f74b118f323b1234e444c9147edcd72cc851255330a724e6d97451005f8a"},
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
		{"retired range limit field", `{"design":"tiny","config":{"range_limit":true}}`},
		{"retired sync_temps field", `{"design":"tiny","config":{"chains":2,"sync_temps":4}}`},
		{"trailing data", `{"design":"tiny"} {"x":1}`},
		{"not an object", `42`},
	} {
		if _, err := parseJobRequest([]byte(tc.body)); err == nil {
			t.Errorf("%s: accepted %s", tc.name, tc.body)
		}
	}
	const retired = `unknown field "sync_temps"`
	if _, err := parseJobRequest([]byte(`{"design":"tiny","config":{"sync_temps":8}}`)); err == nil || !strings.Contains(err.Error(), retired) {
		t.Errorf("sync_temps: error %v, want it to contain %s", err, retired)
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

// TestPortfolioMembersAreJobs: each portfolio member, from a preset or from
// explicit axes, is the plain job with the member's overrides applied: same
// cache key, same scheduling class. So a portfolio shares cached results
// with its members' jobs, and a member's key is pinned wherever the job's is.
func TestPortfolioMembersAreJobs(t *testing.T) {
	const base = `"design":"s1","tracks":30,"priority":"high"`
	const cfg = `"moves_per_cell":4,"max_temps":10`
	job := func(extra string) string { return `{` + base + `,"config":{` + cfg + extra + `}}` }
	for _, tc := range []struct {
		body string
		jobs []string
	}{
		{`{` + base + `,"config":{` + cfg + `},"matrix":{"preset":"seeds4"}}`,
			[]string{job(`,"seed":1`), job(`,"seed":2`), job(`,"seed":3`), job(`,"seed":4`)}},
		{`{` + base + `,"config":{` + cfg + `},"matrix":{"seeds":[5,6],"backends":["ordered","lagrange"]}}`,
			[]string{job(`,"seed":5,"route_backend":"ordered"`), job(`,"seed":6,"route_backend":"ordered"`),
				job(`,"seed":5,"route_backend":"lagrange"`), job(`,"seed":6,"route_backend":"lagrange"`)}},
	} {
		members, err := parsePortfolioRequest([]byte(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if len(members) != len(tc.jobs) {
			t.Fatalf("%s: %d members, want %d", tc.body, len(members), len(tc.jobs))
		}
		for i, m := range members {
			want, err := parseJobRequest([]byte(tc.jobs[i]))
			if err != nil {
				t.Fatal(err)
			}
			if m.spec.key != want.key || m.spec.pri != want.pri {
				t.Errorf("%s member %d (%s): key %s class %v, want job %s's %s %v",
					tc.body, i, m.desc, m.spec.key, m.spec.pri, tc.jobs[i], want.key, want.pri)
			}
		}
	}
}

// BenchmarkParseJobRequest times the admission parse of a job body that
// names a built-in design: decode, validate, resolve the design and hash the
// cache key.
func BenchmarkParseJobRequest(b *testing.B) {
	for _, design := range []string{"tiny", "s1"} {
		body := []byte(`{"design":"` + design + `","config":{"seed":1,"moves_per_cell":4,"max_temps":10}}`)
		b.Run(design, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := parseJobRequest(body); err != nil {
					b.Fatal(err)
				}
			}
		})
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

// TestRecordsEviction pins the retention table behind -max-jobs and
// -max-groups: a full table evicts its oldest terminal records first, skips
// live ones, grows when every record is live, and remove keeps the rest in
// insertion order.
func TestRecordsEviction(t *testing.T) {
	type rec struct{ done bool }
	fill := func(states string) *records[*rec] {
		tb := newRecords(3, func(r *rec) bool { return r.done })
		for i, c := range states {
			tb.add(string(rune('a'+i)), &rec{done: c == 'd'})
		}
		return tb
	}
	check := func(what string, tb *records[*rec], want string) {
		t.Helper()
		if got := strings.Join(tb.order, " "); got != want {
			t.Errorf("%s: order %q, want %q", what, got, want)
		}
		if len(tb.byID) != len(tb.order) {
			t.Errorf("%s: %d records for %d ids in order", what, len(tb.byID), len(tb.order))
		}
		for _, id := range tb.order {
			if _, ok := tb.byID[id]; !ok {
				t.Errorf("%s: %s in order but not in the table", what, id)
			}
		}
	}

	tb := fill("ddd") // a, b, c terminal
	tb.add("x", &rec{})
	check("full, all terminal", tb, "b c x")

	tb = fill("ldl") // a live, b terminal, c live
	tb.add("x", &rec{done: true})
	check("full, live skipped", tb, "a c x")

	tb = fill("lll")
	tb.add("x", &rec{})
	check("full, all live", tb, "a b c x")
	tb.byID["b"].done = true
	tb.add("y", &rec{})
	check("over the cap, one terminal", tb, "a c x y")

	tb = fill("llll")
	tb.remove("b")
	check("remove middle", tb, "a c d")
	tb.remove("zzz")
	check("remove unknown", tb, "a c d")
	tb.byID["c"].done = true
	tb.add("x", &rec{})
	check("add after remove", tb, "a d x")
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

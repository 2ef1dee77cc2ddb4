package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/netgen"
)

// designTable lists the names the built-in design table holds and checks
// its bound: only netgen.Profiles() names, so at most one entry per profile.
func designTable(t *testing.T) []string {
	t.Helper()
	var names []string
	builtinDesigns.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	for _, name := range names {
		if !slices.Contains(netgen.Profiles(), name) {
			t.Errorf("design table holds %q, not a built-in design", name)
		}
	}
	return names
}

// clearDesigns empties the built-in design table, so the next use of each
// name builds its record again.
func clearDesigns() {
	builtinDesigns.Range(func(k, _ any) bool {
		builtinDesigns.Delete(k)
		return true
	})
}

// TestBuiltinDesignRecords pins the per-process design records: each holds
// the bytes a fresh generation writes, specs that name one design share its
// netlist and bytes, and an unknown name is rejected without being stored.
func TestBuiltinDesignRecords(t *testing.T) {
	for _, name := range netgen.Profiles() {
		d, err := resolveDesign(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d.canon, writeNet(t, name)) {
			t.Errorf("%s: record bytes differ from WriteNet of a fresh exper.Design", name)
		}
	}

	a, err := parseJobRequest([]byte(`{"design":"s1","config":{"seed":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildSpec(JobRequest{Design: "s1", Tracks: 24, Config: JobConfig{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if a.nl != b.nl {
		t.Error("two specs naming s1 hold different netlists")
	}
	if &a.canon[0] != &b.canon[0] {
		t.Error("two specs naming s1 hold different canonical bytes")
	}

	for _, name := range []string{"zzz", "TINY", "s1 "} {
		_, err := buildSpec(JobRequest{Design: name})
		if want := `unknown design "` + name + `"`; err == nil || err.Error() != want {
			t.Errorf("design %q: error %v, want %s", name, err, want)
		}
	}
	if names := designTable(t); len(names) != len(netgen.Profiles()) {
		t.Errorf("design table holds %v, want each of %v once", names, netgen.Profiles())
	}
}

// TestDesignRecordsConcurrent submits jobs, a batch and portfolios at once,
// naming the same and different built-in designs, to a server started on an
// empty design table, so first uses race. Every job's key must equal the one
// computed serially from the design's text sent inline, and every job
// naming a design must hold the table's one netlist for it.
func TestDesignRecordsConcurrent(t *testing.T) {
	clearDesigns()
	s := New(Config{Workers: -1, QueueDepth: 64})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	if names := designTable(t); len(names) != 0 {
		t.Fatalf("New built design records %v", names)
	}

	posts := []struct{ path, body string }{
		{"/v1/jobs", `{"design":"tiny","config":{"seed":1}}`},
		{"/v1/jobs", `{"design":"tiny","config":{"seed":2}}`},
		{"/v1/jobs", `{"design":"s1","config":{"seed":1}}`},
		{"/v1/jobs", `{"design":"cse"}`},
		{"/v1/batches", `{"jobs":[{"design":"tiny","config":{"seed":3}},{"design":"s1","config":{"seed":2}},{"design":"bw"}]}`},
		{"/v1/portfolios", `{"design":"s1","matrix":{"seeds":[3,4,5]}}`},
		{"/v1/portfolios", `{"design":"tiny","tracks":24,"matrix":{"seeds":[1,2]}}`},
	}
	const members = 12
	var wg sync.WaitGroup
	for _, p := range posts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+p.path, "application/json", strings.NewReader(p.body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("POST %s %s: %d, want 202", p.path, p.body, resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	var specs []*jobSpec
	s.mu.Lock()
	for _, j := range s.jobs.byID {
		specs = append(specs, j.spec)
	}
	s.mu.Unlock()
	if len(specs) != members {
		t.Fatalf("%d jobs admitted, want %d", len(specs), members)
	}
	canon := make(map[string][]byte)
	for _, spec := range specs {
		name := spec.req.Design
		d, ok := builtinDesigns.Load(name)
		if !ok {
			t.Fatalf("%s: no design record after admission", name)
		}
		if spec.nl != d.(*builtinDesign).nl {
			t.Errorf("%s: a job holds a netlist other than the design's record", name)
		}
		if canon[name] == nil {
			canon[name] = writeNet(t, name)
		}
		inline := spec.req
		inline.Design, inline.Netlist = "", string(canon[name])
		want, err := buildSpec(inline)
		if err != nil {
			t.Fatal(err)
		}
		if spec.key != want.key {
			t.Errorf("%s %+v: key %s, serially %s", name, spec.req.Config, spec.key, want.key)
		}
	}
	if names := designTable(t); len(names) != len(canon) {
		t.Errorf("design table holds %v, want the %d designs named", names, len(canon))
	}
}

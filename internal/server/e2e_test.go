// End-to-end tests of the job service over real HTTP: submit → stream → fetch
// layout → reload through the public API, plus the cancellation, backpressure
// and cache-hit contracts the daemon documents.
package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/server"
)

// newTestService starts a service plus an HTTP front end; both are torn down
// (jobs cancelled first, so no stream can dangle) when the test ends.
func newTestService(t testing.TB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts.URL
}

func submitJob(t testing.TB, base, body string) (server.JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp
}

func getStatus(t testing.TB, base, id string) server.JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// waitState polls until the job reaches the wanted state (or any terminal
// state, which fails the test if it is not the wanted one).
func waitState(t testing.TB, base, id string, want server.JobState, timeout time.Duration) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, base, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v, want %s", id, st.State, timeout, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// readSSE consumes an event stream to EOF and returns per-type counts plus
// the last state payload seen.
func readSSE(t *testing.T, r io.Reader) (counts map[string]int, lastState string) {
	t.Helper()
	counts = make(map[string]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	evType := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			evType = strings.TrimPrefix(line, "event: ")
			counts[evType]++
		case strings.HasPrefix(line, "data: ") && evType == "state":
			var ev struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad state event payload %q: %v", line, err)
			}
			lastState = ev.State
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return counts, lastState
}

const tinyJob = `{"design":"tiny","config":{"seed":1,"moves_per_cell":4,"max_temps":10}}`

// TestEndToEnd is the full life of one job: submit a tiny design, stream its
// per-temperature events, fetch the finished layout, and reload it through
// repro.LoadLayout against the same netlist and architecture.
func TestEndToEnd(t *testing.T) {
	_, base := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})

	st, resp := submitJob(t, base, tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	// An idle worker may lease the job, or even finish it, before the
	// response snapshots it.
	switch {
	case st.Cached:
		t.Fatalf("fresh submit answered from the cache")
	case st.State != server.StateQueued && st.State != server.StateRunning && st.State != server.StateDone:
		t.Fatalf("fresh submit: state %s, want queued, running or done", st.State)
	}

	// Stream events until the job completes; the stream must carry at least
	// one temperature record and end on the terminal state event.
	eresp, err := http.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	counts, lastState := readSSE(t, eresp.Body)
	if counts["temp"] < 1 {
		t.Errorf("streamed %d temperature events, want >= 1", counts["temp"])
	}
	if lastState != string(server.StateDone) {
		t.Errorf("stream ended on state %q, want done", lastState)
	}

	fin := getStatus(t, base, st.ID)
	if fin.State != server.StateDone || fin.Result == nil {
		t.Fatalf("final status: %+v", fin)
	}
	if !fin.Result.FullyRouted {
		t.Errorf("tiny job did not fully route: %+v", fin.Result)
	}

	// The layout must round-trip through the public loader.
	lresp, err := http.Get(base + "/v1/jobs/" + st.ID + "/layout")
	if err != nil {
		t.Fatal(err)
	}
	layoutBytes, err := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	if err != nil || lresp.StatusCode != http.StatusOK {
		t.Fatalf("layout fetch: status %d err %v", lresp.StatusCode, err)
	}
	nl, err := repro.GenerateBenchmark("tiny")
	if err != nil {
		t.Fatal(err)
	}
	a, err := repro.ArchFor(nl, 38)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := repro.LoadLayout(a, nl, bytes.NewReader(layoutBytes))
	if err != nil {
		t.Fatalf("LoadLayout rejected the served layout: %v", err)
	}
	if !lay.FullyRouted {
		t.Errorf("reloaded layout not fully routed (%d unrouted)", lay.Unrouted)
	}
	if lay.WCD != fin.Result.WCDPs {
		t.Errorf("reloaded WCD %.1f ps != reported %.1f ps", lay.WCD, fin.Result.WCDPs)
	}
}

// TestCacheHit submits the identical request twice: the second response must
// be served from the cache — no new optimizer run — with byte-identical
// layout bytes.
func TestCacheHit(t *testing.T) {
	srv, base := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})

	first, resp := submitJob(t, base, tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", resp.StatusCode)
	}
	waitState(t, base, first.ID, server.StateDone, 60*time.Second)

	second, resp := submitJob(t, base, tinyJob)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache-hit submit status = %d, want 200", resp.StatusCode)
	}
	if !second.Cached || second.State != server.StateDone {
		t.Fatalf("second submit not a cache hit: %+v", second)
	}
	if second.CacheKey != first.CacheKey {
		t.Errorf("cache keys differ: %s vs %s", first.CacheKey, second.CacheKey)
	}

	get := func(id string) []byte {
		resp, err := http.Get(base + "/v1/jobs/" + id + "/layout")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := get(first.ID), get(second.ID); !bytes.Equal(a, b) {
		t.Error("cache hit served different layout bytes")
	}

	stats := srv.StatsSnapshot()
	if stats.Runs != 1 {
		t.Errorf("optimizer runs = %d, want 1 (second submission must not re-anneal)", stats.Runs)
	}
	if stats.CacheHits != 1 {
		t.Errorf("cache-hit responses = %d, want 1", stats.CacheHits)
	}
}

// BenchmarkSubmitCacheHit times one cache hit over HTTP, with a WAL store
// attached as in a durable daemon: the POST of a finished tiny job's body,
// answered 200 from the result cache, and the GET of its layout.
func BenchmarkSubmitCacheHit(b *testing.B) {
	st := openStore(b, b.TempDir())
	b.Cleanup(func() { st.Close() })
	_, base := newTestService(b, server.Config{Workers: 1, QueueDepth: 4, Store: st})
	first, resp := submitJob(b, base, tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		b.Fatalf("first submit status = %d, want 202", resp.StatusCode)
	}
	waitState(b, base, first.ID, server.StateDone, 60*time.Second)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit, resp := submitJob(b, base, tinyJob)
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("cache-hit submit status = %d, want 200", resp.StatusCode)
		}
		resp, err := http.Get(base + "/v1/jobs/" + hit.ID + "/layout")
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("layout of %s: %d, %v", hit.ID, resp.StatusCode, err)
		}
	}
}

// longJob is an s1-sized run with a temperature budget far beyond what the
// cancellation and backpressure tests allow to complete.
func longJob(seed int) string {
	return fmt.Sprintf(`{"design":"s1","config":{"seed":%d,"moves_per_cell":4,"max_temps":1000}}`, seed)
}

// TestCancellation cancels a running s1 job and requires prompt (< 2s)
// termination into the canceled state, with no layout available.
func TestCancellation(t *testing.T) {
	_, base := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})

	st, resp := submitJob(t, base, longJob(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	waitState(t, base, st.ID, server.StateRunning, 60*time.Second)

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+st.ID, nil)
	start := time.Now()
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()

	fin := waitState(t, base, st.ID, server.StateCanceled, 2*time.Second)
	if got := time.Since(start); got > 2*time.Second {
		t.Errorf("cancellation took %v, want < 2s", got)
	}
	if fin.Result != nil {
		t.Error("canceled job carries a result")
	}
	lresp, err := http.Get(base + "/v1/jobs/" + st.ID + "/layout")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, lresp.Body)
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusConflict {
		t.Errorf("layout of canceled job: status %d, want 409", lresp.StatusCode)
	}
}

// TestBackpressure fills the worker and the queue, then requires the next
// submission to be rejected with 429 and a Retry-After hint.
func TestBackpressure(t *testing.T) {
	srv, base := newTestService(t, server.Config{Workers: 1, QueueDepth: 1})

	running, resp := submitJob(t, base, longJob(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", resp.StatusCode)
	}
	waitState(t, base, running.ID, server.StateRunning, 60*time.Second)

	queued, resp := submitJob(t, base, longJob(3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status = %d, want 202 (queue has room)", resp.StatusCode)
	}

	_, resp = submitJob(t, base, longJob(4))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if stats := srv.StatsSnapshot(); stats.Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", stats.Rejected)
	}

	// Cancel the backlog so teardown is immediate.
	for _, id := range []string{queued.ID, running.ID} {
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, dresp.Body)
		dresp.Body.Close()
	}
	waitState(t, base, queued.ID, server.StateCanceled, 2*time.Second)
	waitState(t, base, running.ID, server.StateCanceled, 5*time.Second)
}

// TestUnknownJobAndHealth covers the 404 path and the liveness/stats
// endpoints.
func TestUnknownJobAndHealth(t *testing.T) {
	_, base := newTestService(t, server.Config{})

	resp, err := http.Get(base + "/v1/jobs/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}

	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz = %d %q", hresp.StatusCode, body)
	}

	sresp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats server.Stats
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatalf("statsz decode: %v", err)
	}
	sresp.Body.Close()
	if stats.QueueCap == 0 || stats.Workers == 0 {
		t.Errorf("statsz missing configuration: %+v", stats)
	}
}

// TestBadRequests exercises the validation surface end to end.
func TestBadRequests(t *testing.T) {
	_, base := newTestService(t, server.Config{})
	for _, tc := range []struct {
		name, body string
	}{
		{"empty", `{}`},
		{"both sources", `{"design":"tiny","netlist":"x"}`},
		{"unknown design", `{"design":"nope"}`},
		{"bad JSON", `{"design":`},
		{"unknown field", `{"design":"tiny","bogus":1}`},
		{"bad tracks", `{"design":"tiny","tracks":1}`},
		{"bad config", `{"design":"tiny","config":{"max_temps":99999}}`},
		{"bad format", `{"design":"tiny","format":"edif"}`},
		{"garbage netlist", `{"netlist":"not a netlist"}`},
	} {
		_, resp := submitJob(t, base, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

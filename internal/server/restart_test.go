// Durability end-to-end tests: a server with a data directory must survive
// process death — finished layouts are served from disk without
// recomputation, and interrupted jobs are re-enqueued and complete — while a
// server without one behaves exactly as before.
package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// openStore opens the persistent store under dir.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 1<<20)
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return st
}

// startService brings up a service without registering cleanup — restart
// tests tear down and reincarnate servers mid-test.
func startService(cfg server.Config) (*server.Server, *httptest.Server) {
	s := server.New(cfg)
	return s, httptest.NewServer(s.Handler())
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func cancelJob(t *testing.T, base, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func statsOf(t *testing.T, base string) server.Stats {
	t.Helper()
	code, body := getBody(t, base+"/statsz")
	if code != http.StatusOK {
		t.Fatalf("statsz: %d", code)
	}
	var st server.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statsz decode: %v", err)
	}
	return st
}

// TestRestartRecovery is the full durability story across three process
// lives: finish a job, die with one job mid-run and one queued, restart,
// and require the finished layout served from disk (no recompute, identical
// bytes) and the interrupted jobs re-enqueued; then restart once more to see
// the journal compacted down to the surviving jobs.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	quick := tinyJob
	runningJob := longJob(7)
	queuedJob := `{"design":"tiny","config":{"seed":9,"moves_per_cell":4,"max_temps":10}}`

	// Life 1: finish one job, then die with one running and one queued.
	st1 := openStore(t, dir)
	srv1, ts1 := startService(server.Config{Workers: 1, QueueDepth: 8, Store: st1})
	done1, resp := submitJob(t, ts1.URL, quick)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitState(t, ts1.URL, done1.ID, server.StateDone, 60*time.Second)
	code, wantLayout := getBody(t, ts1.URL+"/v1/jobs/"+done1.ID+"/layout")
	if code != http.StatusOK || len(wantLayout) == 0 {
		t.Fatalf("layout fetch in life 1: %d (%d bytes)", code, len(wantLayout))
	}
	interrupted, resp := submitJob(t, ts1.URL, runningJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit long: %d", resp.StatusCode)
	}
	waitState(t, ts1.URL, interrupted.ID, server.StateRunning, 60*time.Second)
	queued, resp := submitJob(t, ts1.URL, queuedJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit queued: %d", resp.StatusCode)
	}
	ts1.Close()
	srv1.Close() // interrupt: no terminal records for the two live jobs
	st1.Close()

	// Life 2: the journal must re-advertise the finished job and re-enqueue
	// the interrupted ones.
	st2 := openStore(t, dir)
	rec := st2.Recovery()
	if len(rec.Done) != 1 || rec.Done[0].Job != done1.ID {
		t.Fatalf("recovered Done = %+v, want %s", rec.Done, done1.ID)
	}
	if len(rec.Pending) != 2 || rec.Pending[0].Job != interrupted.ID || rec.Pending[1].Job != queued.ID {
		t.Fatalf("recovered Pending = %+v, want [%s %s]", rec.Pending, interrupted.ID, queued.ID)
	}
	srv2, ts2 := startService(server.Config{Workers: 1, QueueDepth: 8, Store: st2})

	// The finished job is re-advertised under its old ID with its stats...
	reborn := getStatus(t, ts2.URL, done1.ID)
	if reborn.State != server.StateDone || !reborn.Cached || reborn.Result == nil {
		t.Fatalf("recovered done job: %+v", reborn)
	}
	if reborn.Design != "tiny" || reborn.Result.WallMS <= 0 {
		t.Errorf("recovered metadata lost: design %q, stats %+v", reborn.Design, reborn.Result)
	}
	// ...and its layout is served byte-identical from disk.
	code, gotLayout := getBody(t, ts2.URL+"/v1/jobs/"+done1.ID+"/layout")
	if code != http.StatusOK || !bytes.Equal(gotLayout, wantLayout) {
		t.Fatalf("recovered layout: status %d, bytes equal %v", code, bytes.Equal(gotLayout, wantLayout))
	}

	// Resubmitting the finished work is a cache hit fed from disk: no new
	// optimizer run, identical bytes, disk-hit counter incremented.
	resub, resp := submitJob(t, ts2.URL, quick)
	if resp.StatusCode != http.StatusOK || !resub.Cached {
		t.Fatalf("resubmit after restart: status %d, cached %v", resp.StatusCode, resub.Cached)
	}
	code, resubLayout := getBody(t, ts2.URL+"/v1/jobs/"+resub.ID+"/layout")
	if code != http.StatusOK || !bytes.Equal(resubLayout, wantLayout) {
		t.Fatalf("resubmitted layout differs from life-1 bytes")
	}
	stats := statsOf(t, ts2.URL)
	if stats.Cache.DiskHits < 1 {
		t.Errorf("disk cache hits = %d, want >= 1", stats.Cache.DiskHits)
	}
	if stats.Store == nil {
		t.Fatal("statsz missing store section with -data-dir armed")
	}
	if stats.Store.RecoveredPending != 2 || stats.Store.RecoveredDone != 1 {
		t.Errorf("store stats recovery counts = %+v", stats.Store)
	}

	// The interrupted jobs were re-enqueued: the long one is running again
	// (cancel it — its budget outlives the test), the queued one completes.
	waitState(t, ts2.URL, interrupted.ID, server.StateRunning, 60*time.Second)
	cancelJob(t, ts2.URL, interrupted.ID)
	waitState(t, ts2.URL, interrupted.ID, server.StateCanceled, 5*time.Second)
	fin := waitState(t, ts2.URL, queued.ID, server.StateDone, 60*time.Second)
	if fin.Result == nil {
		t.Fatal("re-enqueued job finished without a result")
	}
	if stats := statsOf(t, ts2.URL); stats.Runs > 2 {
		t.Errorf("optimizer runs = %d in life 2, want <= 2 (only the re-enqueued jobs)", stats.Runs)
	}
	ts2.Close()
	srv2.Close()
	st2.Close()

	// Life 3: the journal has been compacted and resettled — the canceled
	// job is gone for good, both finished jobs are advertised.
	st3 := openStore(t, dir)
	defer st3.Close()
	rec = st3.Recovery()
	if len(rec.Pending) != 0 {
		t.Errorf("life-3 Pending = %+v, want none (canceled jobs must not resurrect)", rec.Pending)
	}
	if len(rec.Done) != 2 {
		t.Errorf("life-3 Done = %+v, want the two finished jobs", rec.Done)
	}
}

// TestRecoverRetiredWorkerFields: a submission journaled before the per-run
// worker-count fields were retired still carries them. Recovery
// decodes the journal with plain json.Unmarshal, which ignores them, so the
// job recovers and completes under the cache key, and with the layout, that
// the same request gets today without them.
func TestRecoverRetiredWorkerFields(t *testing.T) {
	const config = `"seed":3,"moves_per_cell":4,"max_temps":10,"route_backend":"lagrange"`
	_, base := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})
	fresh, resp := submitJob(t, base, `{"design":"tiny","config":{`+config+`}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitState(t, base, fresh.ID, server.StateDone, 60*time.Second)
	_, wantLayout := getBody(t, base+"/v1/jobs/"+fresh.ID+"/layout")

	dir := t.TempDir()
	st1 := openStore(t, dir)
	old := `{"req":{"design":"tiny","config":{` + config + `,"workers":2,"route_workers":4}}}`
	if err := st1.Journal(store.Record{Kind: store.KindSubmitted, Job: "j7", Key: fresh.CacheKey, Data: []byte(old)}); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	st2 := openStore(t, dir)
	srv, ts := startService(server.Config{Workers: 1, QueueDepth: 4, Store: st2})
	defer func() {
		ts.Close()
		srv.Close()
		st2.Close()
	}()
	got := waitState(t, ts.URL, "j7", server.StateDone, 60*time.Second)
	if got.CacheKey != fresh.CacheKey {
		t.Errorf("recovered key %s, want %s", got.CacheKey, fresh.CacheKey)
	}
	code, gotLayout := getBody(t, ts.URL+"/v1/jobs/j7/layout")
	if code != http.StatusOK || !bytes.Equal(gotLayout, wantLayout) {
		t.Errorf("recovered layout: status %d, bytes equal %v", code, bytes.Equal(gotLayout, wantLayout))
	}
}

// TestRejectedSubmissionNotResurrected pins the journal-before-enqueue
// contract's counterpart: a submission bounced by queue backpressure has its
// record neutralized and must not reappear after a restart.
func TestRejectedSubmissionNotResurrected(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	srv1, ts1 := startService(server.Config{Workers: 1, QueueDepth: 1, Store: st1})
	running, resp := submitJob(t, ts1.URL, longJob(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	waitState(t, ts1.URL, running.ID, server.StateRunning, 60*time.Second)
	if _, resp = submitJob(t, ts1.URL, longJob(3)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	if _, resp = submitJob(t, ts1.URL, longJob(4)); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp.StatusCode)
	}
	ts1.Close()
	srv1.Close()
	st1.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	if rec := st2.Recovery(); len(rec.Pending) != 2 {
		t.Errorf("Pending = %+v, want only the two accepted jobs", rec.Pending)
	}
}

// TestAdmissionUnwindsOnJournalFailure closes the store under a running
// server, so every journal append fails. A single job and a two-job batch
// must each answer 500 and leave nothing behind: no job in the table, an
// empty queue, one counted WAL error per request (admission stops at the
// first failed append), and no pending submission after a restart.
func TestAdmissionUnwindsOnJournalFailure(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	_, base := newTestService(t, server.Config{Workers: -1, QueueDepth: 8, Store: st1})
	st1.Close()

	if _, resp := submitJob(t, base, tinySeed(1)); resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("job with a failing journal = %d, want 500", resp.StatusCode)
	}
	batch := fmt.Sprintf(`{"jobs":[%s,%s]}`, tinySeed(2), tinySeed(3))
	if _, resp := postGroup(t, base, "/v1/batches", batch, ""); resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("batch with a failing journal = %d, want 500", resp.StatusCode)
	}
	stats := statsOf(t, base)
	for state, n := range stats.Jobs {
		if n != 0 {
			t.Errorf("%d %s jobs left in the table after unwinding", n, state)
		}
	}
	if stats.QueueDepth != 0 {
		t.Errorf("queue depth = %d after unwinding, want 0", stats.QueueDepth)
	}
	if stats.WALErrors != 2 {
		t.Errorf("wal_errors = %d, want 2", stats.WALErrors)
	}
	if stats.Portfolio.GroupsCreated != 0 {
		t.Errorf("groups_created = %d, want 0", stats.Portfolio.GroupsCreated)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	if rec := st2.Recovery(); len(rec.Pending) != 0 {
		t.Errorf("recovered Pending = %+v, want none", rec.Pending)
	}
}

// TestHTTPCancelNotResurrected: a client cancellation is a journaled
// terminal state — unlike a shutdown interrupt, it survives restart as
// "gone", not "retry".
func TestHTTPCancelNotResurrected(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	srv1, ts1 := startService(server.Config{Workers: 1, QueueDepth: 4, Store: st1})
	running, resp := submitJob(t, ts1.URL, longJob(5))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitState(t, ts1.URL, running.ID, server.StateRunning, 60*time.Second)
	queued, resp := submitJob(t, ts1.URL, longJob(6))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit queued: %d", resp.StatusCode)
	}
	cancelJob(t, ts1.URL, queued.ID) // queued: journals canceled synchronously
	cancelJob(t, ts1.URL, running.ID)
	waitState(t, ts1.URL, running.ID, server.StateCanceled, 5*time.Second)
	ts1.Close()
	srv1.Close()
	st1.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	if rec := st2.Recovery(); len(rec.Pending) != 0 || len(rec.Done) != 0 {
		t.Errorf("recovery = %+v / %+v, want empty (both jobs were client-canceled)", rec.Pending, rec.Done)
	}
}

// TestInMemoryModeUnchanged pins the -data-dir-unset contract: no store
// section in statsz, and the whole lifecycle works exactly as the rest of
// the e2e suite (which all runs storeless) already proves.
func TestInMemoryModeUnchanged(t *testing.T) {
	_, base := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})
	st, resp := submitJob(t, base, tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitState(t, base, st.ID, server.StateDone, 60*time.Second)
	stats := statsOf(t, base)
	if stats.Store != nil {
		t.Errorf("in-memory server advertises a store section: %+v", stats.Store)
	}
	if stats.RateLimited != 0 || stats.RateClients != 0 {
		t.Errorf("in-memory server counts rate limiting: %+v", stats)
	}
}

// End-to-end tests of the coordinator/worker fleet over real HTTP: external
// workers leasing jobs, progress streaming back into SSE, fault injection
// (worker kill and heartbeat stall, both recovering by lease expiry with
// bit-identical results; a dead lease holder at shutdown; a worker that
// outlives a coordinator restart), the priority/fairness scheduler under a
// mixed burst, and the /statsz fleet section.
package server_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/server"
)

// startFleetWorker runs one in-process fleet worker against the coordinator
// at base. It is killed (crash-style) at test end if still alive.
func startFleetWorker(t *testing.T, base, name string, hb time.Duration, exec fleet.Executor) *fleet.Worker {
	t.Helper()
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: base,
		Name:        name,
		Execute:     exec,
		Heartbeat:   hb,
		PollWait:    100 * time.Millisecond,
		RetryEvery:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go w.Run()
	t.Cleanup(func() {
		w.Kill()
		<-w.Done()
	})
	return w
}

// blockUntilCanceled is an executor that never finishes on its own — the
// shape of a wedged or doomed run for the kill tests.
func blockUntilCanceled(spec json.RawMessage, cancel <-chan struct{}, p metrics.Collector) (fleet.ExecResult, error) {
	<-cancel
	return fleet.ExecResult{Canceled: true}, nil
}

// delayedExec runs the real optimizer after d, ignoring cancellation — the
// shape of a partitioned worker that keeps computing after its lease died.
func delayedExec(d time.Duration) fleet.Executor {
	real := server.FleetExecutor()
	return func(spec json.RawMessage, cancel <-chan struct{}, p metrics.Collector) (fleet.ExecResult, error) {
		time.Sleep(d)
		return real(spec, make(chan struct{}), p)
	}
}

// tinySeed is a fast tiny-design job distinguished only by seed (each seed
// is its own cache key).
func tinySeed(seed int) string {
	return fmt.Sprintf(`{"design":"tiny","config":{"seed":%d,"moves_per_cell":4,"max_temps":10}}`, seed)
}

func getStatsz(t *testing.T, base string) server.Stats {
	t.Helper()
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("statsz decode: %v", err)
	}
	return st
}

func layoutHash(t *testing.T, base, id string) [32]byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/layout")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("layout status = %d", resp.StatusCode)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(text)
}

// TestPriorityField pins the satellite contract of the new priority field:
// unknown classes are 400s, the default is normal, and priority never enters
// the cache key — the same design at a different priority is a cache hit.
func TestPriorityField(t *testing.T) {
	_, base := newTestService(t, server.Config{Workers: 2, QueueDepth: 8})

	_, resp := submitJob(t, base, `{"design":"tiny","priority":"urgent"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown priority answered %d, want 400", resp.StatusCode)
	}

	st, resp := submitJob(t, base, tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	if st.Priority != "normal" {
		t.Fatalf("default priority = %q, want normal", st.Priority)
	}
	done := waitState(t, base, st.ID, server.StateDone, 60*time.Second)

	high := strings.Replace(tinyJob, `{"design"`, `{"priority":"high","design"`, 1)
	st2, resp := submitJob(t, base, high)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit at high priority = %d, want 200 (cache hit)", resp.StatusCode)
	}
	if !st2.Cached {
		t.Fatal("priority change broke the cache key: resubmission was not a hit")
	}
	if st2.CacheKey != done.CacheKey {
		t.Fatalf("cache key changed with priority: %s vs %s", st2.CacheKey, done.CacheKey)
	}
	if st2.Priority != "high" {
		t.Fatalf("priority = %q, want high", st2.Priority)
	}
}

// TestFleetEndToEnd runs a coordinator with no local workers and one external
// fleet worker: the job must complete remotely with its SSE stream intact,
// the layout must be identical to a local run, and /statsz must expose the
// fleet section. Then the worker is drained through the API and must exit.
func TestFleetEndToEnd(t *testing.T) {
	_, base := newTestService(t, server.Config{
		Workers: -1, QueueDepth: 8, LeaseTTL: 2 * time.Second,
	})
	w := startFleetWorker(t, base, "remote-1", 100*time.Millisecond, server.FleetExecutor())

	st, resp := submitJob(t, base, tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	done := waitState(t, base, st.ID, server.StateDone, 60*time.Second)
	if done.Result == nil || !done.Result.FullyRouted {
		t.Fatalf("remote result = %+v, want fully routed", done.Result)
	}

	// The SSE stream of a remotely-run job must carry the temperature records
	// the worker shipped on its heartbeats, ending in state done.
	sresp, err := http.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	counts, lastState := readSSE(t, sresp.Body)
	sresp.Body.Close()
	if counts["temp"] == 0 {
		t.Errorf("remote run streamed no temp events: %v", counts)
	}
	if lastState != "done" {
		t.Errorf("stream ended in state %q, want done", lastState)
	}

	// Bit-identical to a local run of the same spec.
	_, localBase := newTestService(t, server.Config{Workers: 2, QueueDepth: 8})
	lst, _ := submitJob(t, localBase, tinyJob)
	waitState(t, localBase, lst.ID, server.StateDone, 60*time.Second)
	if layoutHash(t, base, st.ID) != layoutHash(t, localBase, lst.ID) {
		t.Error("remote layout differs from local layout for the same spec")
	}

	stats := getStatsz(t, base)
	f := stats.Fleet
	if f.WorkersRegistered != 1 || f.RemoteCompletions != 1 || f.LeasesGranted < 1 {
		t.Errorf("fleet stats = %+v", f)
	}
	if stats.Workers != 0 {
		t.Errorf("coordinator-only Workers = %d, want 0", stats.Workers)
	}
	if stats.Scheduler.ByClass == nil || stats.Scheduler.ByClient == nil {
		t.Errorf("scheduler queue maps missing: %+v", stats.Scheduler)
	}

	// Drain via the API: the worker finishes nothing (idle) and exits.
	dresp, err := http.Post(base+"/v1/fleet/workers/"+w.ID()+"/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("drain = %d, want 200", dresp.StatusCode)
	}
	select {
	case <-w.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("drained worker still running after 5s")
	}

	if dresp, err := http.Post(base+"/v1/fleet/workers/w999/drain", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, dresp.Body)
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusNotFound {
			t.Fatalf("drain of unknown worker = %d, want 404", dresp.StatusCode)
		}
	}
}

// TestFleetWorkerKillRequeue is fault injection #1: a worker killed mid-lease
// never completes, the lease expires, and the job is re-enqueued IN FRONT of
// later submissions — it finishes first, on another worker, with the same
// bytes a healthy run produces.
func TestFleetWorkerKillRequeue(t *testing.T) {
	_, base := newTestService(t, server.Config{
		Workers: -1, QueueDepth: 8, LeaseTTL: 300 * time.Millisecond,
	})

	// Victim worker: wedges on whatever it leases.
	victim := startFleetWorker(t, base, "victim", 50*time.Millisecond, blockUntilCanceled)

	a, resp := submitJob(t, base, tinySeed(21))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A = %d", resp.StatusCode)
	}
	waitState(t, base, a.ID, server.StateRunning, 30*time.Second) // leased by the victim

	b, _ := submitJob(t, base, tinySeed(22))
	c, _ := submitJob(t, base, tinySeed(23))

	victim.Kill() // crash: no completion, heartbeats stop mid-lease

	// The lease expires and A returns to the queue — running → queued is the
	// observable signature of the re-enqueue.
	waitState(t, base, a.ID, server.StateQueued, 30*time.Second)

	// A healthy worker arrives and must serve A first (front of queue), then
	// B and C in submission order.
	startFleetWorker(t, base, "healthy", 50*time.Millisecond, server.FleetExecutor())
	fa := waitState(t, base, a.ID, server.StateDone, 120*time.Second)
	fb := waitState(t, base, b.ID, server.StateDone, 120*time.Second)
	fc := waitState(t, base, c.ID, server.StateDone, 120*time.Second)
	if fa.Finished.After(*fb.Finished) || fb.Finished.After(*fc.Finished) {
		t.Errorf("completion order broken: A %v, B %v, C %v — re-enqueued job must run first",
			fa.Finished, fb.Finished, fc.Finished)
	}

	// The retried run must be bit-identical to a local run of the same spec.
	_, localBase := newTestService(t, server.Config{Workers: 2, QueueDepth: 8})
	ref, _ := submitJob(t, localBase, tinySeed(21))
	waitState(t, localBase, ref.ID, server.StateDone, 120*time.Second)
	if layoutHash(t, base, a.ID) != layoutHash(t, localBase, ref.ID) {
		t.Error("retried job's layout differs from a healthy run of the same spec")
	}

	f := getStatsz(t, base).Fleet
	if f.LeaseExpiries < 1 || f.Reenqueues < 1 {
		t.Errorf("fleet stats after kill = %+v, want >=1 expiry and re-enqueue", f)
	}
	if f.RemoteCompletions != 3 {
		t.Errorf("remote completions = %d, want 3", f.RemoteCompletions)
	}
}

// TestFleetHeartbeatStallRequeue is fault injection #2: a worker that keeps
// computing but stops heartbeating loses its lease; the job completes on
// another worker, and the stalled worker's late result is refused (410) —
// the job's published state never flips.
func TestFleetHeartbeatStallRequeue(t *testing.T) {
	_, base := newTestService(t, server.Config{
		Workers: -1, QueueDepth: 8, LeaseTTL: 300 * time.Millisecond,
	})

	stalled := startFleetWorker(t, base, "stalled", 40*time.Millisecond, delayedExec(1200*time.Millisecond))

	st, resp := submitJob(t, base, tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	waitState(t, base, st.ID, server.StateRunning, 30*time.Second)
	stalled.StallHeartbeats(true)

	// Lease dies, job requeues, a healthy worker finishes it.
	waitState(t, base, st.ID, server.StateQueued, 30*time.Second)
	startFleetWorker(t, base, "healthy", 50*time.Millisecond, server.FleetExecutor())
	done := waitState(t, base, st.ID, server.StateDone, 60*time.Second)
	hash := layoutHash(t, base, st.ID)

	// Give the stalled worker time to finish its doomed run and have its
	// completion refused; nothing about the job may change.
	time.Sleep(1500 * time.Millisecond)
	after := getStatus(t, base, st.ID)
	if after.State != server.StateDone || !after.Finished.Equal(*done.Finished) {
		t.Errorf("late completion disturbed the job: %+v vs %+v", after, done)
	}
	if layoutHash(t, base, st.ID) != hash {
		t.Error("late completion replaced the layout")
	}

	f := getStatsz(t, base).Fleet
	if f.LeaseExpiries < 1 || f.Reenqueues < 1 {
		t.Errorf("fleet stats after stall = %+v, want >=1 expiry and re-enqueue", f)
	}
	if f.RemoteCompletions != 1 {
		t.Errorf("remote completions = %d, want exactly 1 (late result must be refused)", f.RemoteCompletions)
	}
}

// TestFleetMixedPriorityBurst is the acceptance harness: one coordinator,
// three workers, a 50-job burst across three clients and three priorities
// with one worker killed mid-burst. Every job must finish, high-priority
// turnaround must beat low-priority, and no client may be starved.
func TestFleetMixedPriorityBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("burst harness is seconds-long; skipped in -short")
	}
	_, base := newTestService(t, server.Config{
		Workers: -1, QueueDepth: 64, LeaseTTL: 500 * time.Millisecond,
	})

	// Submit the whole burst before any worker exists, so scheduling order —
	// not arrival order — decides who runs when.
	priorities := []string{"low", "normal", "high"}
	clients := []string{"alice", "bob", "carol"}
	type sub struct {
		id, pri, client string
	}
	subs := make([]sub, 0, 50)
	for i := 0; i < 50; i++ {
		pri := priorities[i%3]
		client := clients[(i/3)%3]
		body := fmt.Sprintf(
			`{"design":"tiny","priority":%q,"config":{"seed":%d,"moves_per_cell":4,"max_temps":10}}`,
			pri, 100+i)
		req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var st server.JobStatus
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("burst submit %d = %d", i, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		subs = append(subs, sub{id: st.ID, pri: pri, client: client})
	}

	doomed := startFleetWorker(t, base, "doomed", 100*time.Millisecond, server.FleetExecutor())
	startFleetWorker(t, base, "steady-1", 100*time.Millisecond, server.FleetExecutor())
	startFleetWorker(t, base, "steady-2", 100*time.Millisecond, server.FleetExecutor())

	// Forced kill mid-burst: after a handful of completions, one worker dies.
	deadline := time.Now().Add(60 * time.Second)
	for getStatsz(t, base).Fleet.RemoteCompletions < 5 {
		if time.Now().After(deadline) {
			t.Fatal("burst made no progress: <5 completions in 60s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	doomed.Kill()

	// No job lost: every one of the 50 reaches done on the survivors.
	finished := make(map[string]server.JobStatus, len(subs))
	for _, s := range subs {
		finished[s.id] = waitState(t, base, s.id, server.StateDone, 180*time.Second)
	}

	// High-priority median turnaround beats low-priority.
	turnarounds := func(pri string) []time.Duration {
		var ds []time.Duration
		for _, s := range subs {
			if s.pri == pri {
				st := finished[s.id]
				ds = append(ds, st.Finished.Sub(st.Created))
			}
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds
	}
	median := func(ds []time.Duration) time.Duration { return ds[len(ds)/2] }
	hi, lo := turnarounds("high"), turnarounds("low")
	if median(hi) >= median(lo) {
		t.Errorf("median turnaround high %v >= low %v; priority classes had no effect",
			median(hi), median(lo))
	}

	// No client starved: every client appears in the first 60%% of
	// completions.
	order := make([]sub, len(subs))
	copy(order, subs)
	sort.Slice(order, func(i, j int) bool {
		return finished[order[i].id].Finished.Before(*finished[order[j].id].Finished)
	})
	cutoff := len(order) * 60 / 100
	firstSeen := make(map[string]int)
	for i, s := range order {
		if _, ok := firstSeen[s.client]; !ok {
			firstSeen[s.client] = i
		}
	}
	for _, cl := range clients {
		at, ok := firstSeen[cl]
		if !ok || at >= cutoff {
			t.Errorf("client %q starved: first completion at index %d of %d", cl, at, len(order))
		}
	}

	f := getStatsz(t, base).Fleet
	if f.RemoteCompletions < 50 {
		t.Errorf("remote completions = %d, want >= 50", f.RemoteCompletions)
	}
	if f.WorkersRegistered != 3 {
		t.Errorf("workers registered = %d, want 3", f.WorkersRegistered)
	}
}

// TestFleetMalformedStatsFails: a worker that completes a job with valid JSON
// stats of the wrong shape must fail the job. Nothing may reach the result
// cache or the blob store, so resubmitting the same key runs fresh.
func TestFleetMalformedStatsFails(t *testing.T) {
	st := openStore(t, t.TempDir())
	_, base := newTestService(t, server.Config{
		Workers: -1, QueueDepth: 8, LeaseTTL: 2 * time.Second, Store: st,
	})
	real := server.FleetExecutor()
	bad := startFleetWorker(t, base, "bad-stats", 100*time.Millisecond,
		func(spec json.RawMessage, cancel <-chan struct{}, p metrics.Collector) (fleet.ExecResult, error) {
			res, err := real(spec, cancel, p)
			res.Stats = json.RawMessage(`{"critical_path_ps":"x"}`)
			return res, err
		})

	sub, resp := submitJob(t, base, tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	failed := waitState(t, base, sub.ID, server.StateFailed, 60*time.Second)
	if !strings.Contains(failed.Error, "stats") {
		t.Errorf("failed job error = %q, want a stats decode error", failed.Error)
	}
	if c := getStatsz(t, base).Cache; c.Entries != 0 {
		t.Errorf("cache holds %d entries after a malformed completion, want 0", c.Entries)
	}
	if st.HasBlob(failed.CacheKey) {
		t.Error("malformed completion was written to the blob store")
	}

	bad.Kill()
	<-bad.Done()
	startFleetWorker(t, base, "good", 100*time.Millisecond, real)
	again, resp := submitJob(t, base, tinyJob)
	if resp.StatusCode != http.StatusAccepted || again.Cached {
		t.Fatalf("resubmit = %d (cached %v), want a fresh 202", resp.StatusCode, again.Cached)
	}
	done := waitState(t, base, again.ID, server.StateDone, 60*time.Second)
	if done.CacheKey != failed.CacheKey {
		t.Fatalf("cache key changed: %s vs %s", done.CacheKey, failed.CacheKey)
	}
	if !st.HasBlob(done.CacheKey) {
		t.Error("the good completion did not reach the blob store")
	}
}

// TestCloseWithDeadLeaseHolder: a portfolio member is leased to a worker that
// then dies, long before its lease would expire. Close must still return
// promptly: it moves the member to canceled itself, which ends the stream
// the portfolio's aggregation follows, instead of waiting for a completion
// or an expiry that will never come.
func TestCloseWithDeadLeaseHolder(t *testing.T) {
	srv, ts := startService(server.Config{Workers: -1, QueueDepth: 8})
	defer ts.Close()
	victim := startFleetWorker(t, ts.URL, "victim", 50*time.Millisecond, blockUntilCanceled)

	st, resp := postGroup(t, ts.URL, "/v1/portfolios",
		`{"design":"tiny","config":{"moves_per_cell":4,"max_temps":10},"matrix":{"seeds":[71]}}`, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("portfolio submit = %d", resp.StatusCode)
	}
	member := st.Members[0].Job
	waitState(t, ts.URL, member, server.StateRunning, 30*time.Second)
	victim.Kill()
	<-victim.Done()

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a portfolio member leased to a dead worker")
	}
	if got := getStatus(t, ts.URL, member).State; got != server.StateCanceled {
		t.Errorf("member state after Close = %s, want canceled", got)
	}
}

// TestStaleWorkerAcrossRestart: a worker that outlives a coordinator restart
// still holds a lease from the first life. Its late completion must not land
// on the second life's lease, even though a counter-based scheme would give
// that lease (and its worker) the very same IDs: the second life's job stays
// with its own holder, and the stale bytes never reach the result cache.
func TestStaleWorkerAcrossRestart(t *testing.T) {
	// One address across both lives: the front swaps to the restarted server.
	var live atomic.Pointer[server.Server]
	live.Store(server.New(server.Config{Workers: -1, QueueDepth: 8}))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		live.Load().Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	// The stale worker leases job A in life 1 and sits on it, sending no
	// heartbeats, until released.
	leased, release := make(chan struct{}), make(chan struct{})
	real := server.FleetExecutor()
	stale := startFleetWorker(t, ts.URL, "stale", time.Hour,
		func(spec json.RawMessage, cancel <-chan struct{}, p metrics.Collector) (fleet.ExecResult, error) {
			close(leased)
			<-release
			return real(spec, make(chan struct{}), p)
		})
	if _, resp := submitJob(t, ts.URL, tinySeed(81)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A = %d", resp.StatusCode)
	}
	select {
	case <-leased:
	case <-time.After(30 * time.Second):
		t.Fatal("job A was never leased")
	}

	// Restart. Life 2 leases job B to a holder that runs until canceled.
	life1 := live.Load()
	life2 := server.New(server.Config{Workers: -1, QueueDepth: 8})
	defer life2.Close()
	live.Store(life2)
	life1.Close()
	startFleetWorker(t, ts.URL, "holder", 50*time.Millisecond, blockUntilCanceled)
	b, resp := submitJob(t, ts.URL, tinySeed(82))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B = %d", resp.StatusCode)
	}
	waitState(t, ts.URL, b.ID, server.StateRunning, 30*time.Second)

	// The stale worker finishes A and completes its life-1 lease.
	close(release)
	stale.Drain()
	<-stale.Done()

	if got := getStatus(t, ts.URL, b.ID); got.State != server.StateRunning {
		t.Errorf("job B is %s after the stale completion, want still running on its holder", got.State)
	}
	stats := getStatsz(t, ts.URL)
	if stats.Fleet.RemoteCompletions != 0 || stats.Cache.Entries != 0 {
		t.Errorf("stale completion published: %d completions, %d cache entries, want 0 and 0",
			stats.Fleet.RemoteCompletions, stats.Cache.Entries)
	}
}

// End-to-end tests of batch and portfolio serving over real HTTP: matrix
// expansion into ordinary jobs, the member scoreboard, deterministic champion
// selection with the champion layout bit-identical to a standalone run,
// cache dedup across identical members, one-token group admission under the
// rate limiter, all-or-nothing enqueue, fault injection (worker kill mid-
// portfolio), and scoreboard recovery across a restart.
package server_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// postGroup submits one batch or portfolio body to path ("/v1/batches" or
// "/v1/portfolios") under the given client identity.
func postGroup(t *testing.T, base, path, body, client string) (server.GroupStatus, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set("X-Client-ID", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.GroupStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode group submit response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp
}

// getGroup fetches one group scoreboard by its resource path.
func getGroup(t *testing.T, base, path string) server.GroupStatus {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	var st server.GroupStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode group status: %v", err)
	}
	return st
}

// waitGroup polls a group until it reaches the wanted state; any other
// terminal state fails the test.
func waitGroup(t *testing.T, base, path string, want server.JobState, timeout time.Duration) server.GroupStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getGroup(t, base, path)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("group %s reached %s, want %s (members %+v)", path, st.State, want, st.Members)
		}
		if time.Now().After(deadline) {
			t.Fatalf("group %s still %s after %v, want %s", path, st.State, timeout, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// groupLayoutHash hashes the champion layout of a finished portfolio.
func groupLayoutHash(t *testing.T, base, path string) [32]byte {
	t.Helper()
	code, body := getBody(t, base+path+"/layout")
	if code != http.StatusOK {
		t.Fatalf("champion layout = %d: %s", code, body)
	}
	return sha256.Sum256(body)
}

// TestPortfolioChampionAndDedup is the tentpole acceptance test. A portfolio
// over (2 seeds × 2 effort points whose knobs are identical) must expand to 4
// members of which 2 dedup intra-group, pick a deterministic champion whose
// layout is bit-identical to running that member standalone, and an identical
// resubmission must be served entirely from the cache with zero new optimizer
// runs.
func TestPortfolioChampionAndDedup(t *testing.T) {
	srv, base := newTestService(t, server.Config{Workers: 2, QueueDepth: 16})

	// The "dup" effort differs from the base effort only by name, which never
	// enters the cache key — members 2 and 3 are intra-group duplicates of 0
	// and 1.
	body := `{"design":"tiny","config":{"moves_per_cell":4,"max_temps":10},` +
		`"matrix":{"seeds":[1,2],"efforts":[{},{"name":"dup"}]}}`
	st, resp := postGroup(t, base, "/v1/portfolios", body, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("portfolio submit = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/portfolios/"+st.ID {
		t.Errorf("Location = %q, want /v1/portfolios/%s", loc, st.ID)
	}
	if st.Kind != "portfolio" || len(st.Members) != 4 {
		t.Fatalf("submit scoreboard: kind=%q members=%d, want portfolio/4", st.Kind, len(st.Members))
	}
	// The scoreboard is reachable while the run is live: the 202 body already
	// carries every member row, and the duplicates are marked.
	for i, want := range []int{-1, -1, 0, 1} {
		switch {
		case want < 0 && st.Members[i].DupOf != nil:
			t.Errorf("member %d marked dup of %d, want original", i, *st.Members[i].DupOf)
		case want >= 0 && (st.Members[i].DupOf == nil || *st.Members[i].DupOf != want):
			t.Errorf("member %d dup_of = %v, want %d", i, st.Members[i].DupOf, want)
		}
	}

	// The champion layout must not be served before the group is terminal.
	if code, _ := getBody(t, base+"/v1/portfolios/"+st.ID+"/layout"); code == http.StatusOK && !getGroup(t, base, "/v1/portfolios/"+st.ID).State.Terminal() {
		t.Error("champion layout served while the portfolio was still live")
	}

	path := "/v1/portfolios/" + st.ID
	done := waitGroup(t, base, path, server.StateDone, 120*time.Second)
	if done.Champion == nil {
		t.Fatal("finished portfolio has no champion")
	}
	champ := *done.Champion
	if champ != 0 && champ != 1 {
		t.Fatalf("champion = %d; a duplicate member must never beat its original (tie → lower index)", champ)
	}
	// Re-derive the champion client-side from the published scores: strict
	// (route_failed, unrouted, critical_path_ps, bbox_cost, index) order.
	best := -1
	for i, m := range done.Members {
		if m.Score == nil {
			t.Fatalf("member %d finished without a score", i)
		}
		if best < 0 || m.Score.Less(*done.Members[best].Score) {
			best = i
		}
	}
	if best != champ {
		t.Errorf("champion = %d, but the published scores say %d", champ, best)
	}
	if done.ChampionJob != done.Members[champ].Job {
		t.Errorf("champion_job = %q, member %d job = %q", done.ChampionJob, champ, done.Members[champ].Job)
	}

	// Bit-identical to standalone: run the champion member's exact config as a
	// plain job on a fresh service (so nothing can be served from this cache).
	champSeed := champ + 1 // members 0,1 are seeds 1,2 at the base effort
	_, soloBase := newTestService(t, server.Config{Workers: 1, QueueDepth: 4})
	solo, resp := submitJob(t, soloBase, fmt.Sprintf(
		`{"design":"tiny","config":{"seed":%d,"moves_per_cell":4,"max_temps":10}}`, champSeed))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("standalone submit = %d", resp.StatusCode)
	}
	waitState(t, soloBase, solo.ID, server.StateDone, 60*time.Second)
	if groupLayoutHash(t, base, path) != layoutHash(t, soloBase, solo.ID) {
		t.Error("champion layout differs from the same member run standalone")
	}

	// The aggregated stream replays member transitions and ends with exactly
	// one champion event and the terminal group state.
	eresp, err := http.Get(base + path + "/events")
	if err != nil {
		t.Fatal(err)
	}
	counts, lastState := readSSE(t, eresp.Body)
	eresp.Body.Close()
	if counts["champion"] != 1 || counts["member"] < 2 || lastState != "done" {
		t.Errorf("portfolio stream: counts=%v last=%q, want 1 champion, ≥2 member, done", counts, lastState)
	}

	runsBefore := srv.StatsSnapshot().Runs
	if runsBefore != 2 {
		t.Errorf("optimizer runs = %d, want 2 (4 members, 2 unique)", runsBefore)
	}

	// Identical resubmission: every member is a cache hit, answered 200 with
	// no new work behind it.
	again, resp := postGroup(t, base, "/v1/portfolios", body, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200 (all members cached)", resp.StatusCode)
	}
	for i, m := range again.Members {
		if m.DupOf == nil && !m.Cached {
			t.Errorf("resubmitted member %d not served from cache", i)
		}
	}
	if again.State != server.StateDone || again.Champion == nil || *again.Champion != champ {
		t.Errorf("resubmitted portfolio: state=%s champion=%v, want done/%d", again.State, again.Champion, champ)
	}
	stats := srv.StatsSnapshot()
	if stats.Runs != runsBefore {
		t.Errorf("resubmission re-annealed: runs %d → %d", runsBefore, stats.Runs)
	}
	if stats.Portfolio.DedupHits < int64(len(again.Members)) {
		t.Errorf("dedup_hits = %d, want ≥ %d", stats.Portfolio.DedupHits, len(again.Members))
	}
	if stats.Portfolio.GroupsCreated != 2 || stats.Portfolio.ActivePortfolios != 0 {
		t.Errorf("portfolio stats = %+v, want 2 groups, 0 active", stats.Portfolio)
	}
}

// TestBatchEndToEnd runs several netlists as one batch: every member is an
// ordinary, individually addressable job; the scoreboard aggregates them; the
// batch stream carries member transitions but never a champion.
func TestBatchEndToEnd(t *testing.T) {
	_, base := newTestService(t, server.Config{Workers: 2, QueueDepth: 16})

	body := fmt.Sprintf(`{"jobs":[%s,%s,%s]}`, tinySeed(31), tinySeed(32), tinySeed(31))
	st, resp := postGroup(t, base, "/v1/batches", body, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit = %d, want 202", resp.StatusCode)
	}
	if st.Kind != "batch" || len(st.Members) != 3 {
		t.Fatalf("batch scoreboard: kind=%q members=%d", st.Kind, len(st.Members))
	}
	if st.Members[2].DupOf == nil || *st.Members[2].DupOf != 0 {
		t.Errorf("jobs[2] repeats jobs[0] but dup_of = %v", st.Members[2].DupOf)
	}
	// Members are ordinary jobs, reachable under /v1/jobs by the IDs the
	// scoreboard publishes.
	for _, m := range st.Members {
		js := getStatus(t, base, m.Job)
		if js.ID != m.Job {
			t.Errorf("member job %s not addressable via /v1/jobs", m.Job)
		}
	}

	path := "/v1/batches/" + st.ID
	done := waitGroup(t, base, path, server.StateDone, 120*time.Second)
	if done.Champion != nil {
		t.Error("batches must not elect champions")
	}
	for i, m := range done.Members {
		if m.State != server.StateDone || m.Score == nil {
			t.Errorf("member %d: state=%s score=%v, want done with score", i, m.State, m.Score)
		}
	}

	eresp, err := http.Get(base + path + "/events")
	if err != nil {
		t.Fatal(err)
	}
	counts, lastState := readSSE(t, eresp.Body)
	eresp.Body.Close()
	if counts["champion"] != 0 || counts["member"] < 2 || counts["state"] != 1 || lastState != "done" {
		t.Errorf("batch stream: counts=%v last=%q", counts, lastState)
	}
}

// TestBatchCancelNoOrphans cancels a batch with one member running and two
// queued: every member must reach a terminal state promptly (no orphaned
// queued or running jobs anywhere), and the service must stay healthy.
func TestBatchCancelNoOrphans(t *testing.T) {
	_, base := newTestService(t, server.Config{Workers: 1, QueueDepth: 16})

	body := fmt.Sprintf(`{"jobs":[%s,%s,%s]}`, longJob(41), longJob(42), longJob(43))
	st, resp := postGroup(t, base, "/v1/batches", body, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit = %d", resp.StatusCode)
	}
	path := "/v1/batches/" + st.ID
	waitGroup(t, base, path, server.StateRunning, 60*time.Second)

	req, _ := http.NewRequest(http.MethodDelete, base+path, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("batch cancel = %d", dresp.StatusCode)
	}

	canceled := waitGroup(t, base, path, server.StateCanceled, 30*time.Second)
	for i, m := range canceled.Members {
		if m.State != server.StateCanceled {
			t.Errorf("member %d is %s after batch cancel, want canceled", i, m.State)
		}
		// No orphans: the member job itself is terminal too.
		if js := getStatus(t, base, m.Job); !js.State.Terminal() {
			t.Errorf("member job %s still %s after batch cancel", m.Job, js.State)
		}
	}
	stats := getStatsz(t, base)
	if stats.Jobs[server.StateQueued] != 0 || stats.Jobs[server.StateRunning] != 0 {
		t.Errorf("orphaned members after cancel: %v", stats.Jobs)
	}
	if stats.Portfolio.ActiveBatches != 0 {
		t.Errorf("active batches = %d after cancel, want 0", stats.Portfolio.ActiveBatches)
	}

	// The worker pool is intact: a fresh job still completes.
	after, resp := submitJob(t, base, tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-cancel submit = %d", resp.StatusCode)
	}
	waitState(t, base, after.ID, server.StateDone, 60*time.Second)
}

// TestGroupAdmissionAtomic pins all-or-nothing enqueue: a batch larger than
// the queue is rejected whole — no member sneaks in, no group record is
// created.
func TestGroupAdmissionAtomic(t *testing.T) {
	_, base := newTestService(t, server.Config{Workers: -1, QueueDepth: 2})

	body := fmt.Sprintf(`{"jobs":[%s,%s,%s]}`, tinySeed(1), tinySeed(2), tinySeed(3))
	_, resp := postGroup(t, base, "/v1/batches", body, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized batch = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	stats := getStatsz(t, base)
	if stats.Scheduler.Depth != 0 {
		t.Errorf("queue depth = %d after atomic rejection, want 0", stats.Scheduler.Depth)
	}
	if stats.Portfolio.GroupsCreated != 0 {
		t.Errorf("groups_created = %d after rejection, want 0", stats.Portfolio.GroupsCreated)
	}
	if stats.Jobs[server.StateQueued] != 0 {
		t.Errorf("members leaked into the job table: %v", stats.Jobs)
	}

	// A batch that fits is admitted afterwards — rejection left no debris.
	st, resp := postGroup(t, base, "/v1/batches",
		fmt.Sprintf(`{"jobs":[%s,%s]}`, tinySeed(1), tinySeed(2)), "")
	if resp.StatusCode != http.StatusAccepted || len(st.Members) != 2 {
		t.Fatalf("follow-up batch = %d (%d members), want 202/2", resp.StatusCode, len(st.Members))
	}
}

// TestGroupClientAttribution pins the fairness satellite: one POST costs one
// rate-limit token regardless of member count, and every member job is
// attributed to the submitting client in the scheduler's fair queue.
func TestGroupClientAttribution(t *testing.T) {
	_, base := newTestService(t, server.Config{
		Workers: -1, QueueDepth: 16, RatePerSec: 0.001, RateBurst: 1,
	})

	// Three members through one token.
	body := fmt.Sprintf(`{"jobs":[%s,%s,%s]}`, tinySeed(1), tinySeed(2), tinySeed(3))
	st, resp := postGroup(t, base, "/v1/batches", body, "alice")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch under rate limit = %d, want 202 (one POST, one token)", resp.StatusCode)
	}
	if len(st.Members) != 3 {
		t.Fatalf("members = %d", len(st.Members))
	}

	stats := getStatsz(t, base)
	if got := stats.Scheduler.ByClient["alice"]; got != 3 {
		t.Errorf("scheduler by_client[alice] = %d, want 3 (members inherit the submitter)", got)
	}
	if got := stats.Scheduler.ByClass["normal"]; got != 3 {
		t.Errorf("scheduler by_class[normal] = %d, want 3", got)
	}
	if stats.Scheduler.AgingStepMS <= 0 {
		t.Errorf("aging_step_ms = %d, want the positive default", stats.Scheduler.AgingStepMS)
	}

	// The bucket is empty now: alice's next group POST is refused outright.
	_, resp = postGroup(t, base, "/v1/portfolios",
		`{"design":"tiny","matrix":{"seeds":[7]}}`, "alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second POST = %d, want 429 (token spent by the batch)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate-limited group POST without Retry-After")
	}

	// Another client has its own bucket and its own fair-queue lane.
	pst, resp := postGroup(t, base, "/v1/portfolios",
		`{"design":"tiny","config":{"moves_per_cell":4,"max_temps":10},"matrix":{"seeds":[1,2]}}`, "bob")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob's portfolio = %d, want 202", resp.StatusCode)
	}
	if len(pst.Members) != 2 {
		t.Fatalf("bob's members = %d", len(pst.Members))
	}
	stats = getStatsz(t, base)
	if got := stats.Scheduler.ByClient["bob"]; got != 2 {
		t.Errorf("scheduler by_client[bob] = %d, want 2", got)
	}
	if stats.Portfolio.ActiveBatches != 1 || stats.Portfolio.ActivePortfolios != 1 {
		t.Errorf("portfolio stats = %+v, want 1 active batch + 1 active portfolio", stats.Portfolio)
	}
}

// TestPortfolioWorkerKillChampionStable is group fault injection: a fleet
// worker dies mid-member, the lease expires and the member re-runs elsewhere,
// and the portfolio still converges to the exact champion a healthy run
// produces — bit-identical layout included.
func TestPortfolioWorkerKillChampionStable(t *testing.T) {
	_, base := newTestService(t, server.Config{
		Workers: -1, QueueDepth: 16, LeaseTTL: 300 * time.Millisecond,
	})

	victim := startFleetWorker(t, base, "victim", 50*time.Millisecond, blockUntilCanceled)

	body := `{"design":"tiny","config":{"moves_per_cell":4,"max_temps":10},` +
		`"matrix":{"seeds":[31,32,33]}}`
	st, resp := postGroup(t, base, "/v1/portfolios", body, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("portfolio submit = %d", resp.StatusCode)
	}
	path := "/v1/portfolios/" + st.ID

	// Wait until the victim has leased a member, then crash it.
	var wedged string
	deadline := time.Now().Add(30 * time.Second)
	for wedged == "" {
		if time.Now().After(deadline) {
			t.Fatal("no member ever started on the victim worker")
		}
		for _, m := range getGroup(t, base, path).Members {
			if m.State == server.StateRunning {
				wedged = m.Job
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	victim.Kill()
	waitState(t, base, wedged, server.StateQueued, 30*time.Second) // lease expired, re-enqueued

	startFleetWorker(t, base, "healthy", 50*time.Millisecond, server.FleetExecutor())
	done := waitGroup(t, base, path, server.StateDone, 120*time.Second)
	if done.Champion == nil {
		t.Fatal("portfolio finished without a champion")
	}

	// Reference: the same portfolio on a pristine local service.
	_, refBase := newTestService(t, server.Config{Workers: 2, QueueDepth: 16})
	rst, resp := postGroup(t, refBase, "/v1/portfolios", body, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("reference submit = %d", resp.StatusCode)
	}
	refPath := "/v1/portfolios/" + rst.ID
	ref := waitGroup(t, refBase, refPath, server.StateDone, 120*time.Second)
	if ref.Champion == nil || *ref.Champion != *done.Champion {
		t.Fatalf("champion index diverged after worker kill: %v vs %v", done.Champion, ref.Champion)
	}
	if groupLayoutHash(t, base, path) != groupLayoutHash(t, refBase, refPath) {
		t.Error("champion layout after worker kill differs from a healthy run")
	}

	f := getStatsz(t, base).Fleet
	if f.LeaseExpiries < 1 || f.Reenqueues < 1 {
		t.Errorf("fleet stats = %+v, want ≥1 lease expiry and re-enqueue", f)
	}
}

// TestGroupRestartRecovery proves the scoreboard survives process death: a
// finished portfolio's members, scores, champion and layout all come back
// from the WAL, and a mid-flight portfolio's members are re-enqueued and
// finish in the next life.
func TestGroupRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	finished := `{"design":"tiny","config":{"moves_per_cell":4,"max_temps":10},` +
		`"matrix":{"seeds":[51,52]}}`
	midflight := `{"design":"s1","config":{"moves_per_cell":4,"max_temps":60},` +
		`"matrix":{"seeds":[61,62]}}`

	// Life 1: finish one portfolio, die with a second in flight.
	st1 := openStore(t, dir)
	srv1, ts1 := startService(server.Config{Workers: 1, QueueDepth: 16, Store: st1})
	p1, resp := postGroup(t, ts1.URL, "/v1/portfolios", finished, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit finished portfolio: %d", resp.StatusCode)
	}
	p1Path := "/v1/portfolios/" + p1.ID
	before := waitGroup(t, ts1.URL, p1Path, server.StateDone, 120*time.Second)
	wantHash := groupLayoutHash(t, ts1.URL, p1Path)

	p2, resp := postGroup(t, ts1.URL, "/v1/portfolios", midflight, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit midflight portfolio: %d", resp.StatusCode)
	}
	p2Path := "/v1/portfolios/" + p2.ID
	waitGroup(t, ts1.URL, p2Path, server.StateRunning, 60*time.Second)
	ts1.Close()
	srv1.Close()
	st1.Close()

	// Life 2: the finished scoreboard is back verbatim; the interrupted one
	// finishes.
	st2 := openStore(t, dir)
	srv2, ts2 := startService(server.Config{Workers: 1, QueueDepth: 16, Store: st2})
	defer func() {
		ts2.Close()
		srv2.Close()
		st2.Close()
	}()

	after := getGroup(t, ts2.URL, p1Path)
	if after.State != server.StateDone || len(after.Members) != len(before.Members) {
		t.Fatalf("recovered portfolio: state=%s members=%d, want done/%d",
			after.State, len(after.Members), len(before.Members))
	}
	if after.Champion == nil || *after.Champion != *before.Champion {
		t.Fatalf("champion changed across restart: %v vs %v", after.Champion, before.Champion)
	}
	for i := range after.Members {
		a, b := after.Members[i], before.Members[i]
		if a.State != server.StateDone || a.Score == nil || b.Score == nil || *a.Score != *b.Score {
			t.Errorf("member %d score diverged across restart: %+v vs %+v", i, a.Score, b.Score)
		}
	}
	if groupLayoutHash(t, ts2.URL, p1Path) != wantHash {
		t.Error("champion layout bytes changed across restart")
	}

	redone := waitGroup(t, ts2.URL, p2Path, server.StateDone, 180*time.Second)
	if redone.Champion == nil {
		t.Fatal("re-run portfolio finished without a champion")
	}
	for i, m := range redone.Members {
		if m.State != server.StateDone || m.Score == nil {
			t.Errorf("re-run member %d: state=%s, want done with score", i, m.State)
		}
	}
}

// TestGroupBadRequests tables the admission rejections both group endpoints
// must produce.
func TestGroupBadRequests(t *testing.T) {
	_, base := newTestService(t, server.Config{Workers: -1, QueueDepth: 8})

	manySeeds := make([]string, 65)
	for i := range manySeeds {
		manySeeds[i] = fmt.Sprint(i + 1)
	}
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"batch empty object", "/v1/batches", `{}`, http.StatusBadRequest},
		{"batch no jobs", "/v1/batches", `{"jobs":[]}`, http.StatusBadRequest},
		{"batch unknown field", "/v1/batches", `{"jobs":[{"design":"tiny"}],"extra":1}`, http.StatusBadRequest},
		{"batch trailing data", "/v1/batches", `{"jobs":[{"design":"tiny"}]} garbage`, http.StatusBadRequest},
		{"batch bad member", "/v1/batches", `{"jobs":[{"design":"no-such-design"}]}`, http.StatusBadRequest},
		{"portfolio empty matrix", "/v1/portfolios", `{"design":"tiny","matrix":{}}`, http.StatusBadRequest},
		{"portfolio unknown preset", "/v1/portfolios", `{"design":"tiny","matrix":{"preset":"nope"}}`, http.StatusBadRequest},
		{"portfolio preset plus axes", "/v1/portfolios", `{"design":"tiny","matrix":{"preset":"seeds4","seeds":[1]}}`, http.StatusBadRequest},
		{"portfolio bad backend", "/v1/portfolios", `{"design":"tiny","matrix":{"backends":["warp"]}}`, http.StatusBadRequest},
		{"portfolio retired sync_temps", "/v1/portfolios", `{"design":"tiny","config":{"sync_temps":8},"matrix":{"seeds":[1]}}`, http.StatusBadRequest},
		{"portfolio negative seed", "/v1/portfolios", `{"design":"tiny","matrix":{"seeds":[-1]}}`, http.StatusBadRequest},
		{"portfolio too many members", "/v1/portfolios",
			`{"design":"tiny","matrix":{"seeds":[` + strings.Join(manySeeds, ",") + `]}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, resp := postGroup(t, base, tc.path, tc.body, "")
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Unknown IDs and cross-kind lookups are 404s.
	if code, _ := getBody(t, base+"/v1/batches/b99"); code != http.StatusNotFound {
		t.Errorf("unknown batch = %d, want 404", code)
	}
	st, resp := postGroup(t, base, "/v1/batches", fmt.Sprintf(`{"jobs":[%s]}`, tinySeed(1)), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit = %d", resp.StatusCode)
	}
	if code, _ := getBody(t, base+"/v1/portfolios/"+st.ID); code != http.StatusNotFound {
		t.Errorf("batch fetched via the portfolio namespace = %d, want 404", code)
	}
}

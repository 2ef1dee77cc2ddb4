// The coordinator side of the fleet work-dispatch protocol, the only way a
// job runs: workers register here, lease jobs out of the shared scheduler,
// heartbeat to keep their leases alive (shipping buffered optimizer progress
// with every beat, which feeds the job's SSE stream), and complete them back
// into the result cache and the WAL. A lease that misses its heartbeats is
// harvested by the janitor and its job re-enqueued at the front of the queue
// — deterministic runs make the retry idempotent, so whichever worker
// finishes produces bit-identical bytes. The in-process workers are ordinary
// fleet.Workers whose HTTP client is served by this handler in memory.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/store"
)

// Fleet request-body caps: control messages are small; only a completion may
// carry a layout blob.
const (
	maxFleetBodyBytes    = 1 << 20  // register / lease / drain
	maxCompleteBodyBytes = 64 << 20 // heartbeat progress batches and completions
)

// localHeartbeat is the in-process workers' renewal cadence (capped at a
// third of the lease TTL). A beat costs one in-memory request, and it is
// what carries progress to SSE subscribers and a DELETE to the run, so it is
// kept short.
const localHeartbeat = 50 * time.Millisecond

// startLocalWorkers starts cfg.Workers fleet workers in this process. Their
// requests never touch a socket: muxTransport serves them through the
// server's own handler, so they register, lease, heartbeat and complete
// through exactly the handlers and wire validation external workers use.
func (s *Server) startLocalWorkers() {
	client := &http.Client{Transport: muxTransport{s.mux}}
	for i := 0; i < s.cfg.Workers; i++ {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: "http://in-process",
			Name:        fmt.Sprintf("local-%d", i+1),
			Execute:     FleetExecutor(),
			Client:      client,
			Heartbeat:   min(localHeartbeat, s.leases.TTL()/3),
		})
		if err != nil {
			panic(err) // every required field is set above
		}
		s.workers = append(s.workers, w)
		go w.Run()
	}
}

// muxTransport is an http.RoundTripper that answers each request by calling
// the handler directly.
type muxTransport struct{ h http.Handler }

func (t muxTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	// A shallow copy: the mux records path values on the request it serves,
	// and a RoundTripper must not modify the caller's.
	t.h.ServeHTTP(rec, r.WithContext(r.Context()))
	return rec.Result(), nil
}

// readFleetMessage reads and strictly decodes one fleet wire message,
// answering 400 itself on failure.
func readFleetMessage(w http.ResponseWriter, r *http.Request, limit int64, m fleet.Message) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, "request body: %v", err)
		return false
	}
	if err := fleet.UnmarshalMessage(body, m); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	return true
}

// handleFleetRegister implements POST /v1/fleet/workers.
func (s *Server) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	var req fleet.RegisterRequest
	if !readFleetMessage(w, r, maxFleetBodyBytes, &req) {
		return
	}
	info := s.registry.Register(req.Name)
	ttl := s.leases.TTL()
	hb := ttl / 3
	if hb < time.Millisecond {
		hb = time.Millisecond
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, fleet.RegisterResponse{
		WorkerID:    info.ID,
		LeaseTTLMS:  ttl.Milliseconds(),
		HeartbeatMS: hb.Milliseconds(),
	})
}

// handleFleetDrain implements POST /v1/fleet/workers/{id}/drain: the worker
// keeps its active leases but is refused new ones.
func (s *Server) handleFleetDrain(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.registry.Drain(id) {
		httpError(w, http.StatusNotFound, "unknown worker %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, map[string]string{"worker_id": id, "state": "draining"})
}

// handleFleetLease implements POST /v1/fleet/lease: check the next scheduled
// job out to the worker, long-polling up to WaitMS when the queue is empty.
// 204 = no work within the window; 409 = the worker is draining.
func (s *Server) handleFleetLease(w http.ResponseWriter, r *http.Request) {
	var req fleet.LeaseRequest
	if !readFleetMessage(w, r, maxFleetBodyBytes, &req) {
		return
	}
	deadline := time.Now().Add(time.Duration(req.WaitMS) * time.Millisecond)
	for {
		info, ok := s.registry.Get(req.WorkerID)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown worker %q", req.WorkerID)
			return
		}
		if info.Draining {
			httpError(w, http.StatusConflict, "worker %q is draining", req.WorkerID)
			return
		}
		s.registry.Touch(req.WorkerID)
		// Snapshot the wake channel before polling so an enqueue racing the
		// failed TryDequeue still wakes the wait below.
		wake := s.sched.WakeChan()
		if j, ok := s.sched.TryDequeue(); ok {
			if !j.beginRunning() {
				continue // canceled while queued; try the next job
			}
			s.journal(store.Record{Kind: store.KindRunning, Job: j.ID, Key: j.Key})
			atomic.AddInt64(&s.runs, 1)
			lease := s.leases.Grant(j.ID, req.WorkerID)
			spec, err := json.Marshal(j.spec.req)
			if err != nil {
				// Unserializable spec (cannot happen for a validated request):
				// surface it as a failed job rather than wedging the lease.
				s.leases.Complete(lease.ID, req.WorkerID)
				s.finishJobFailed(j, "serialize spec for lease: "+err.Error())
				httpError(w, http.StatusInternalServerError, "serialize spec: %v", err)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			writeJSON(w, fleet.LeaseGrant{
				LeaseID: lease.ID,
				JobID:   j.ID,
				Key:     j.Key,
				Spec:    spec,
				TTLMS:   s.leases.TTL().Milliseconds(),
			})
			return
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		t := time.NewTimer(remaining)
		select {
		case <-wake:
			t.Stop()
		case <-t.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			t.Stop()
			return
		case <-s.quit:
			t.Stop()
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
}

// handleFleetHeartbeat implements POST /v1/fleet/leases/{id}/heartbeat: renew
// the lease, bridge the shipped progress into the job's event stream, and
// tell the worker whether the job was canceled. 410 = the lease already
// expired or completed, or was never this worker's — the worker should stop.
func (s *Server) handleFleetHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req fleet.HeartbeatRequest
	if !readFleetMessage(w, r, maxCompleteBodyBytes, &req) {
		return
	}
	id := r.PathValue("id")
	lease, ok := s.leases.Renew(id, req.WorkerID)
	if !ok {
		httpError(w, http.StatusGone, "lease %q is no longer held", id)
		return
	}
	s.registry.Touch(req.WorkerID)
	cancel := false
	if j, ok := s.lookup(lease.Job); ok {
		applyProgress(j, req.Progress)
		cancel = j.cancelRequested()
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, fleet.HeartbeatResponse{Cancel: cancel, TTLMS: s.leases.TTL().Milliseconds()})
}

// handleFleetComplete implements POST /v1/fleet/leases/{id}/complete: retire
// the lease and move its job terminal. Completing the lease is the
// exactly-once gate — a late completion from a worker whose lease expired
// finds it gone, and one naming a lease it does not hold (a worker that
// outlived a coordinator restart, say) is refused; both are answered 410, so
// only the holder ever publishes a job's result (and the blob lands in the
// content-addressed store once).
func (s *Server) handleFleetComplete(w http.ResponseWriter, r *http.Request) {
	var req fleet.CompleteRequest
	if !readFleetMessage(w, r, maxCompleteBodyBytes, &req) {
		return
	}
	id := r.PathValue("id")
	lease, ok := s.leases.Complete(id, req.WorkerID)
	if !ok {
		httpError(w, http.StatusGone, "lease %q is no longer held", id)
		return
	}
	s.registry.RecordCompletion(req.WorkerID)
	j, ok := s.lookup(lease.Job)
	if !ok {
		// The job record was evicted while the run was out on lease; nothing
		// left to publish into.
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, map[string]string{"job": lease.Job, "state": "forgotten"})
		return
	}
	applyProgress(j, req.Progress)
	switch {
	case req.Status == fleet.StatusDone && !j.cancelRequested():
		// Stats that do not decode fail the job: a done result with zeroed
		// stats would be cached and served as good.
		var stats JobStats
		if len(req.Stats) > 0 {
			if err := json.Unmarshal(req.Stats, &stats); err != nil {
				s.finishJobFailed(j, "decode worker stats: "+err.Error())
				break
			}
		}
		s.finishJobDone(j, &JobResult{Layout: req.Layout, Stats: stats})
		atomic.AddInt64(&s.remoteDone, 1)
	case req.Status == fleet.StatusFailed:
		s.finishJobFailed(j, req.Error)
	default:
		// Canceled — or done bytes racing a cancel request, which are
		// reported as canceled rather than published.
		s.finishJobCanceled(j)
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, j.Snapshot())
}

// applyProgress bridges a batch of worker-shipped progress records into the
// job's event hub, feeding /events subscribers and the status endpoint's
// live Progress view. The wire decoder has already checked that each record
// carries exactly its own type's payload.
func applyProgress(j *Job, evs []fleet.ProgressEvent) {
	for _, ev := range evs {
		j.hub.append(Event{Type: ev.Type, Temp: ev.Temp, Phase: ev.Phase, Chain: ev.Chain})
	}
}

// finishJobDone moves a running job to done, journaling the completion. The
// durability order matters: the layout blob is written through the cache
// *before* the done record is appended, so a journaled done always has (or at
// worst has since evicted) its blob.
func (s *Server) finishJobDone(j *Job, jr *JobResult) {
	s.cache.put(j.Key, jr)
	if !j.finishTerminal(StateDone, jr, "") || s.store == nil {
		return
	}
	data, _ := json.Marshal(journalCompletion{
		Design: j.spec.designName(),
		Cells:  j.spec.nl.NumCells(),
		Nets:   j.spec.nl.NumNets(),
		Stats:  jr.Stats,
	})
	s.journal(store.Record{Kind: store.KindDone, Job: j.ID, Key: j.Key, Data: data})
}

// finishJobFailed moves a running job to failed and journals the error.
func (s *Server) finishJobFailed(j *Job, msg string) {
	if j.finishTerminal(StateFailed, nil, msg) {
		s.journal(store.Record{Kind: store.KindFailed, Job: j.ID, Key: j.Key, Data: []byte(msg)})
	}
}

// finishJobCanceled moves a running job to canceled and journals it. A job
// that Close already interrupted is terminal, so nothing is journaled for it
// and its submitted record stays pending for the next process life.
func (s *Server) finishJobCanceled(j *Job) {
	if j.finishTerminal(StateCanceled, nil, "") {
		s.journal(store.Record{Kind: store.KindCanceled, Job: j.ID, Key: j.Key})
	}
}

// leaseJanitor periodically harvests expired leases and re-enqueues their
// jobs. Runs for the life of the server, even with no fleet attached — it is
// idle then.
func (s *Server) leaseJanitor() {
	defer s.wg.Done()
	tick := s.leases.TTL() / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case now := <-t.C:
			for _, l := range s.leases.Expire(now) {
				s.handleLeaseExpiry(l)
			}
		}
	}
}

// handleLeaseExpiry puts an expired lease's job back in front of the queue.
// The retry is idempotent — runs are deterministic per cache key — and the
// job keeps its original enqueue time, so it loses no aging credit and jumps
// ahead of everything submitted after it. A job canceled while the dead
// worker held it goes terminal instead.
func (s *Server) handleLeaseExpiry(l fleet.Lease) {
	j, ok := s.lookup(l.Job)
	if !ok {
		return
	}
	requeue, canceled := j.requeueForRetry()
	switch {
	case requeue:
		atomic.AddInt64(&s.reenqueues, 1)
		s.sched.EnqueueFront(j, j.pri, j.client, j.created)
	case canceled:
		s.journal(store.Record{Kind: store.KindCanceled, Job: j.ID, Key: j.Key})
	}
}

// FleetStats is the fleet section of /statsz.
type FleetStats struct {
	WorkersRegistered int   `json:"workers_registered"`
	WorkersLive       int   `json:"workers_live"`
	WorkersDraining   int   `json:"workers_draining"`
	ActiveLeases      int   `json:"active_leases"`
	LeasesGranted     int64 `json:"leases_granted"`
	LeasesRenewed     int64 `json:"leases_renewed"`
	LeaseExpiries     int64 `json:"lease_expiries"`
	Reenqueues        int64 `json:"reenqueues"`
	RemoteCompletions int64 `json:"remote_completions"`
}

// fleetStats snapshots the fleet section of /statsz. Liveness uses a window
// of two lease TTLs: a worker that has not leased, heartbeat or completed in
// that long has almost certainly crashed or partitioned.
func (s *Server) fleetStats() FleetStats {
	registered, live, draining := s.registry.Counts(2 * s.leases.TTL())
	lc := s.leases.Counters()
	return FleetStats{
		WorkersRegistered: registered,
		WorkersLive:       live,
		WorkersDraining:   draining,
		ActiveLeases:      s.leases.Active(),
		LeasesGranted:     lc.Granted,
		LeasesRenewed:     lc.Renewed,
		LeaseExpiries:     lc.Expired,
		Reenqueues:        atomic.LoadInt64(&s.reenqueues),
		RemoteCompletions: atomic.LoadInt64(&s.remoteDone),
	}
}

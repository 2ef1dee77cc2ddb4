// Package server is the fpgaprd place-and-route job service: an HTTP/JSON
// API over the simultaneous place-and-route optimizer with queueing,
// cancellation, deterministic result caching and streaming progress.
//
//	POST   /v1/jobs             submit a job (named benchmark or inline netlist)
//	GET    /v1/jobs/{id}        job status (state machine + live progress)
//	GET    /v1/jobs/{id}/layout finished layout (layio serialization)
//	GET    /v1/jobs/{id}/events per-temperature progress as Server-Sent Events
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /healthz             liveness
//	GET    /statsz              queue/cache/job counters
//
// plus the fleet work-dispatch endpoints under /v1/fleet/ (see fleet.go and
// the wire protocol in internal/fleet) through which workers lease jobs.
//
// Jobs flow through a bounded scheduler — priority classes with aging, then
// round-robin across clients, then FIFO — and every run is a fleet lease:
// the in-process workers are fleet.Workers whose requests are served by this
// handler in memory, external fpgaprw processes are the same loop over HTTP.
// A full queue answers 429 with Retry-After rather than blocking or buffering
// unboundedly. With a single client submitting at one priority the scheduler
// degenerates to exactly the FIFO it replaced. Results are cached under
// hash(canonical netlist, arch params, config, seed): the optimizer is
// bit-exact for that tuple, so a repeat submission returns the identical
// layout bytes without re-annealing — and a lease-expiry retry on another
// worker reproduces the same bytes.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/store"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of in-process fleet workers (default 2). They
	// lease, heartbeat and complete exactly like external fpgaprw workers,
	// through an in-memory transport. Negative means none: the process is a
	// pure coordinator and external workers execute every job.
	Workers int
	// QueueDepth is the bounded queue capacity; submissions beyond it are
	// rejected with 429 (default 16).
	QueueDepth int
	// CacheEntries caps the deterministic result cache (default 128).
	CacheEntries int
	// MaxJobs caps retained job records; the oldest terminal jobs are evicted
	// first (default 512).
	MaxJobs int
	// MaxGroups caps retained batch/portfolio records, evicted like jobs
	// (default 64).
	MaxGroups int
	// MaxBodyBytes caps the request body (default 4 MiB).
	MaxBodyBytes int64

	// Store enables durability: job lifecycle records are journaled to its
	// WAL (submissions before they are enqueued) and finished layouts are
	// written through to its content-addressed disk cache. At startup the
	// journal is replayed: interrupted jobs are re-enqueued, finished ones
	// re-advertised. nil keeps the service purely in-memory — bit-for-bit
	// today's pre-persistence behavior.
	Store *store.Store

	// RatePerSec arms a per-client token-bucket rate limit on the submission
	// POSTs, one token each (0 disables). RateBurst is the bucket capacity
	// (default 1 when armed).
	RatePerSec float64
	RateBurst  int
	// MaxInflight caps one client's live (queued or running) jobs
	// (0 disables). Violations answer 429 with Retry-After, like the queue's
	// backpressure path.
	MaxInflight int

	// LeaseTTL is how long an external worker's lease survives without a
	// heartbeat before the job is re-enqueued (default fleet.DefaultLeaseTTL).
	LeaseTTL time.Duration
	// AgingStep is the queue-wait per one-class priority promotion
	// (0 = fleet.DefaultAgingStep; negative disables aging).
	AgingStep time.Duration
}

func (c *Config) setDefaults() {
	switch {
	case c.Workers == 0:
		c.Workers = 2
	case c.Workers < 0:
		c.Workers = 0 // coordinator-only: fleet workers do all execution
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 512
	}
	if c.MaxGroups <= 0 {
		c.MaxGroups = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
}

// Server is the job service. Create with New, serve via Handler, stop with
// Close.
type Server struct {
	cfg     Config
	start   time.Time
	mux     *http.ServeMux
	sched   *fleet.Scheduler[*Job]
	quit    chan struct{}
	wg      sync.WaitGroup
	cache   *resultCache
	store   *store.Store // nil = in-memory only
	limiter *rateLimiter // nil = no token-bucket limit

	// Fleet state: worker identities and the leases checking jobs out to
	// them. workers are the in-process ones, killed by Close.
	registry *fleet.Registry
	leases   *fleet.LeaseManager
	workers  []*fleet.Worker

	mu     sync.Mutex
	jobs   *records[*Job]
	groups *records[*group]
	ids    idAlloc

	// Counters (atomic; reported by /statsz).
	submitted   int64
	rejected    int64
	cacheHits   int64
	runs        int64
	rateLimited int64
	walErrors   int64
	reenqueues  int64
	remoteDone  int64
	groupsMade  int64
	dedupHits   int64
}

// New builds a server and starts its in-process workers. If cfg.Store is
// set, the replayed journal is re-instated first: finished jobs are
// re-advertised, interrupted ones re-enqueued, and the journal compacted —
// all before the workers start, so recovered work runs in its original
// submission order.
func New(cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{
		cfg:   cfg,
		start: time.Now(),
		mux:   http.NewServeMux(),
		sched: fleet.NewScheduler[*Job](fleet.SchedulerConfig{
			Capacity:  cfg.QueueDepth,
			AgingStep: cfg.AgingStep,
		}),
		quit:     make(chan struct{}),
		cache:    newResultCache(cfg.CacheEntries, cfg.Store),
		store:    cfg.Store,
		registry: fleet.NewRegistry(nil),
		leases:   fleet.NewLeaseManager(cfg.LeaseTTL, nil),
		jobs:     newRecords(cfg.MaxJobs, func(j *Job) bool { return j.State().Terminal() }),
		groups:   newRecords(cfg.MaxGroups, (*group).terminal),
		ids:      make(idAlloc),
	}
	if cfg.RatePerSec > 0 {
		s.limiter = newRateLimiter(cfg.RatePerSec, cfg.RateBurst)
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/layout", s.handleLayout)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/batches", s.handleBatchSubmit)
	s.mux.HandleFunc("GET /v1/batches/{id}", s.handleGroupStatus(groupBatch))
	s.mux.HandleFunc("DELETE /v1/batches/{id}", s.handleGroupCancel(groupBatch))
	s.mux.HandleFunc("GET /v1/batches/{id}/events", s.handleGroupEvents(groupBatch))
	s.mux.HandleFunc("POST /v1/portfolios", s.handlePortfolioSubmit)
	s.mux.HandleFunc("GET /v1/portfolios/{id}", s.handleGroupStatus(groupPortfolio))
	s.mux.HandleFunc("DELETE /v1/portfolios/{id}", s.handleGroupCancel(groupPortfolio))
	s.mux.HandleFunc("GET /v1/portfolios/{id}/events", s.handleGroupEvents(groupPortfolio))
	s.mux.HandleFunc("GET /v1/portfolios/{id}/layout", s.handlePortfolioLayout)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("POST /v1/fleet/workers", s.handleFleetRegister)
	s.mux.HandleFunc("POST /v1/fleet/workers/{id}/drain", s.handleFleetDrain)
	s.mux.HandleFunc("POST /v1/fleet/lease", s.handleFleetLease)
	s.mux.HandleFunc("POST /v1/fleet/leases/{id}/heartbeat", s.handleFleetHeartbeat)
	s.mux.HandleFunc("POST /v1/fleet/leases/{id}/complete", s.handleFleetComplete)
	if s.store != nil {
		s.recover()
	}
	s.wg.Add(1)
	go s.leaseJanitor()
	s.startLocalWorkers()
	return s
}

// recover re-instates the journal's surviving jobs. Runs before the worker
// pool starts, so enqueue order is exactly the original submission order.
func (s *Server) recover() {
	rec := s.store.Recovery()
	keep := make([]store.Record, 0, len(rec.Done)+len(rec.Pending))
	for _, d := range rec.Done {
		var done journalCompletion
		if err := json.Unmarshal(d.Data, &done); err != nil {
			continue // journaled by a future/past schema; the blob is still servable via resubmission
		}
		s.reinstate(d.Job, newRecoveredJob(done, d.Key))
		keep = append(keep, d)
	}
	var enqueue []*Job
	for _, p := range rec.Pending {
		var sub journalSubmission
		if err := json.Unmarshal(p.Data, &sub); err != nil {
			continue
		}
		spec, err := buildSpec(sub.Req)
		if err != nil {
			continue // validation rules tightened since the journal was written
		}
		j := newJob(spec, sub.Client, nil)
		s.reinstate(p.Job, j)
		enqueue = append(enqueue, j)
		keep = append(keep, p)
	}
	// Groups rebind after the member jobs exist: a member resolves to its
	// re-instated job, or to its surviving result blob, or is reported
	// unrecoverable — the scoreboard survives either way.
	for _, gr := range rec.Groups {
		var jg journalGroup
		if err := json.Unmarshal(gr.Data, &jg); err != nil {
			continue
		}
		g := s.rebuildGroup(gr.Job, jg)
		if g == nil {
			continue
		}
		s.mu.Lock()
		s.groups.add(g.ID, g)
		s.ids.bump(g.ID)
		s.mu.Unlock()
		s.startGroupForwarders(g)
		keep = append(keep, gr)
	}
	// Fold the replayed history to one record per surviving job; this is
	// what bounds journal growth across restarts.
	if err := s.store.Compact(keep); err != nil {
		atomic.AddInt64(&s.walErrors, 1)
	}
	for _, j := range enqueue {
		if !s.sched.TryEnqueueAll([]*Job{j}, []fleet.Priority{j.pri}, j.client) {
			// More interrupted work than queue slots: fail the overflow
			// loudly rather than block startup.
			j.finishTerminal(StateFailed, nil, "job queue full during crash recovery")
			s.journal(store.Record{Kind: store.KindFailed, Job: j.ID, Key: j.Key,
				Data: []byte("job queue full during crash recovery")})
		}
	}
}

// reinstate adds a recovered job under its journaled ID and moves the ID
// allocator past it, so fresh submissions never collide with it.
func (s *Server) reinstate(id string, j *Job) {
	j.ID = id
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs.add(id, j)
	s.ids.bump(id)
}

// journal appends one lifecycle record; a nil store makes it free. Append
// errors are counted (visible in /statsz) rather than failing the job — the
// in-memory state machine stays authoritative for this process life.
func (s *Server) journal(r store.Record) {
	if s.store == nil {
		return
	}
	if err := s.store.Journal(r); err != nil {
		atomic.AddInt64(&s.walErrors, 1)
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the service: the in-process workers are killed (their runs
// stop at the next temperature boundary and are never completed), and every
// live job — queued, or running on any worker — is moved to canceled here,
// which also ends its event stream. Close waits only for the server's own
// goroutines, never for a worker, so a dead worker holding a lease cannot
// stall it. Interrupts are deliberately not journaled — with a store
// attached, every interrupted job's submitted record stays pending in the
// WAL, so the next process life re-enqueues and finishes it. Only a
// client's DELETE that had not yet reached its worker is journaled.
func (s *Server) Close() {
	close(s.quit)
	s.sched.Close()
	for _, w := range s.workers {
		w.Kill()
	}
	s.mu.Lock()
	for _, j := range s.jobs.byID {
		if j.interrupt() {
			s.journal(store.Record{Kind: store.KindCanceled, Job: j.ID, Key: j.Key})
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// records is an insertion-ordered table of jobs or groups under a
// retention cap: adding to a full table first evicts its oldest terminal
// records, and when every record is live it grows rather than drop state.
// Server.mu guards it.
type records[T any] struct {
	max      int
	terminal func(T) bool
	byID     map[string]T
	order    []string // insertion order, for eviction
}

func newRecords[T any](max int, terminal func(T) bool) *records[T] {
	return &records[T]{max: max, terminal: terminal, byID: make(map[string]T)}
}

func (t *records[T]) add(id string, v T) {
	for len(t.byID) >= t.max {
		i := slices.IndexFunc(t.order, func(old string) bool { return t.terminal(t.byID[old]) })
		if i < 0 {
			break
		}
		delete(t.byID, t.order[i])
		t.order = slices.Delete(t.order, i, i+1)
	}
	t.byID[id] = v
	t.order = append(t.order, id)
}

func (t *records[T]) remove(id string) {
	delete(t.byID, id)
	if i := slices.Index(t.order, id); i >= 0 {
		t.order = slices.Delete(t.order, i, i+1)
	}
}

// idAlloc numbers records per ID prefix: 'j' for jobs, 'b' for batches and
// 'p' for portfolios. Server.mu guards it.
type idAlloc map[byte]int64

func (a idAlloc) next(prefix byte) string {
	a[prefix]++
	return fmt.Sprintf("%c%d", prefix, a[prefix])
}

// bump moves the counter of a recovered ID's prefix past its number.
func (a idAlloc) bump(id string) {
	if id == "" {
		return
	}
	if n, err := strconv.ParseInt(id[1:], 10, 64); err == nil && n > a[id[0]] {
		a[id[0]] = n
	}
}

// lookup finds a job by id.
func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs.byID[id]
	return j, ok
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeJSON(w, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// admission is an admitted request: its client, one member per job it asked
// for, and how many new jobs it queued to run.
type admission struct {
	client  string
	members []*groupMember
	queued  int
}

// admit is the one admission path of POST /v1/jobs, /v1/batches and
// /v1/portfolios; a single job is a one-member request. In order, it
// spends one rate-limit token, parses the body into members, dedups each
// member against earlier ones by cache key and looks it up in the result
// cache (a hit becomes a job born done, with no run), checks the inflight
// quota and registers every job under one s.mu hold, journals each new
// job's submission, and enqueues all new jobs or none. A failure answers the
// request and unwinds: the jobs leave the table and each journaled
// submission gets a canceled record. admit returns nil once it has answered.
func (s *Server) admit(w http.ResponseWriter, r *http.Request,
	parse func([]byte) ([]memberSpec, error)) *admission {
	client := clientKey(r)
	// One POST is one token, however many members it expands to: the bucket
	// limits request rate, the quota limits concurrent work.
	if wait, ok := s.limiter.allow(client, time.Now()); !ok {
		atomic.AddInt64(&s.rateLimited, 1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(wait)))
		httpError(w, http.StatusTooManyRequests,
			"rate limit exceeded for client %q; retry later", client)
		return nil
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, "request body: %v", err)
		return nil
	}
	specs, err := parse(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	atomic.AddInt64(&s.submitted, int64(len(specs)))

	// A member whose key an earlier member has shares that member's job; a
	// cache hit is a new job born done; the rest are new jobs to run (fresh).
	a := &admission{client: client}
	var jobs, fresh []*Job
	var pris []fleet.Priority
	first := make(map[string]int, len(specs))
	for i, ms := range specs {
		m := &groupMember{Index: i, Desc: ms.desc, Key: ms.spec.key, DupOf: -1}
		if fi, ok := first[m.Key]; ok {
			m.DupOf, m.Dedup, m.job = fi, a.members[fi].Dedup, a.members[fi].job
		} else {
			first[m.Key] = i
			res, hit := s.cache.get(m.Key)
			m.job, m.Dedup = newJob(ms.spec, client, res), hit
			jobs = append(jobs, m.job)
			if !hit {
				fresh = append(fresh, m.job)
				pris = append(pris, ms.spec.pri)
			}
		}
		a.members = append(a.members, m)
	}

	// The quota gates real work only, as a whole request, and in the same
	// lock hold that counts the new jobs: no concurrent request can pass the
	// check before these jobs are visible to it.
	s.mu.Lock()
	if q := s.cfg.MaxInflight; q > 0 && len(fresh) > 0 && s.inflightLocked(client)+len(fresh) > q {
		s.mu.Unlock()
		atomic.AddInt64(&s.rateLimited, 1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"client %q: %d new jobs would exceed the %d-job inflight quota; retry later",
			client, len(fresh), q)
		return nil
	}
	for _, j := range jobs {
		j.ID = s.ids.next('j')
		s.jobs.add(j.ID, j)
	}
	s.mu.Unlock()

	// Journal before enqueue: once the client holds a 202, the work is
	// durable, and a crash before completion re-enqueues it.
	if s.store != nil {
		for n, j := range fresh {
			data, _ := json.Marshal(journalSubmission{Client: client, Req: j.spec.req})
			if err := s.store.Journal(store.Record{
				Kind: store.KindSubmitted, Job: j.ID, Key: j.Key, Data: data,
			}); err != nil {
				atomic.AddInt64(&s.walErrors, 1)
				s.unwind(jobs, fresh[:n], "admission aborted")
				httpError(w, http.StatusInternalServerError, "journal submission: %v", err)
				return nil
			}
		}
	}
	if len(fresh) > 0 && !s.sched.TryEnqueueAll(fresh, pris, client) {
		s.unwind(jobs, fresh, "queue full")
		atomic.AddInt64(&s.rejected, 1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"queue cannot admit %d jobs atomically (capacity %d); retry later",
			len(fresh), s.cfg.QueueDepth)
		return nil
	}
	a.queued = len(fresh)
	return a
}

// unwind reverses a failed admission: its jobs leave the table, and each
// journaled submission gets a canceled record, so recovery cannot resurrect
// it.
func (s *Server) unwind(jobs, journaled []*Job, why string) {
	s.mu.Lock()
	for _, j := range jobs {
		s.jobs.remove(j.ID)
	}
	s.mu.Unlock()
	for _, j := range journaled {
		s.journal(store.Record{Kind: store.KindCanceled, Job: j.ID, Key: j.Key, Data: []byte(why)})
	}
}

// inflightLocked counts one client's live (non-terminal) jobs. Callers hold
// s.mu.
func (s *Server) inflightLocked(client string) int {
	n := 0
	for _, j := range s.jobs.byID {
		if j.client == client && !j.State().Terminal() {
			n++
		}
	}
	return n
}

// handleSubmit implements POST /v1/jobs: a one-member admission, answered
// 200 when the result was cached and 202 when the job was queued.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	a := s.admit(w, r, func(body []byte) ([]memberSpec, error) {
		spec, err := parseJobRequest(body)
		if err != nil {
			return nil, err
		}
		return []memberSpec{{spec: spec, desc: spec.designName()}}, nil
	})
	if a == nil {
		return
	}
	j, status := a.members[0].job, http.StatusAccepted
	if a.queued == 0 {
		atomic.AddInt64(&s.cacheHits, 1)
		status = http.StatusOK
	}
	respondAt(w, status, "/v1/jobs/"+j.ID, j.Snapshot())
}

// respondAt answers a request that created or changed the resource at
// location.
func respondAt(w http.ResponseWriter, status int, location string, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", location)
	w.WriteHeader(status)
	writeJSON(w, v)
}

// handleStatus implements GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, j.Snapshot())
}

// handleLayout implements GET /v1/jobs/{id}/layout: the layio serialization
// of a finished layout, loadable by repro.LoadLayout against the same
// netlist and ArchFor-derived architecture.
func (s *Server) handleLayout(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.serveLayout(w, j)
}

// serveLayout writes a done job's layout bytes (shared with the portfolio
// champion endpoint).
func (s *Server) serveLayout(w http.ResponseWriter, j *Job) {
	text, ok := j.layoutBytes()
	if !ok {
		httpError(w, http.StatusConflict, "job %s is %s, no layout available", j.ID, j.State())
		return
	}
	if text == nil {
		// Recovered done job: the layout was left on disk. Read it through
		// the cache; it may legitimately be gone if the disk cache evicted
		// the blob since the job finished.
		res, hit := s.cache.get(j.Key)
		if !hit {
			httpError(w, http.StatusConflict,
				"job %s finished in a previous run and its layout was evicted; resubmit to recompute", j.ID)
			return
		}
		text = res.Layout
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(text)
}

// handleCancel implements DELETE /v1/jobs/{id}.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.cancel(j)
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, j.Snapshot())
}

// cancel asks a job to stop and journals the cancellation if the job went
// terminal here: a queued job cancels synchronously, while a running job's
// terminal record is journaled by its worker's completion at the stop
// boundary.
func (s *Server) cancel(j *Job) {
	if j.requestCancel() && j.State() == StateCanceled {
		s.journal(store.Record{Kind: store.KindCanceled, Job: j.ID, Key: j.Key})
	}
}

// handleEvents implements GET /v1/jobs/{id}/events: the job's full event
// history replayed, then live events until the job reaches a terminal state
// (Server-Sent Events; event types state, phase, temp, chain).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.streamHub(w, r, j.hub)
}

// streamHub serves one event hub as an SSE stream: full history replayed,
// then live events until the hub seals (shared by job and group streams).
func (s *Server) streamHub(w http.ResponseWriter, r *http.Request, hub *eventHub) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	cursor := 0
	for {
		evs, sealed, wake := hub.next(cursor)
		for i := range evs {
			if err := writeSSE(w, &evs[i]); err != nil {
				return
			}
		}
		cursor += len(evs)
		fl.Flush()
		if sealed && len(evs) == 0 {
			return
		}
		if len(evs) > 0 {
			continue // drain before sleeping
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// writeSSE writes one event in SSE framing: event type, id, and the JSON
// payload as data.
func writeSSE(w io.Writer, ev *Event) error {
	if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: ", ev.Type, ev.Seq); err != nil {
		return err
	}
	if err := writeJSONCompact(w, ev); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// handleHealthz implements GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// Stats is the wire shape of GET /statsz.
type Stats struct {
	UptimeSec   float64          `json:"uptime_sec"`
	Workers     int              `json:"workers"`
	QueueDepth  int              `json:"queue_depth"`
	QueueCap    int              `json:"queue_cap"`
	Jobs        map[JobState]int `json:"jobs"`
	Submitted   int64            `json:"submitted"`
	Rejected    int64            `json:"rejected"`
	RateLimited int64            `json:"rate_limited"`
	RateClients int              `json:"rate_clients"`
	CacheHits   int64            `json:"cache_hit_responses"`
	Runs        int64            `json:"optimizer_runs"`
	Cache       CacheStats       `json:"cache"`
	Fleet       FleetStats       `json:"fleet"`
	Portfolio   PortfolioStats   `json:"portfolio"`
	Scheduler   SchedulerStats   `json:"scheduler"`
	Store       *store.Stats     `json:"store,omitempty"` // nil without -data-dir
	WALErrors   int64            `json:"wal_errors,omitempty"`
	Goroutines  int              `json:"goroutines"`
}

// StatsSnapshot returns the current service counters.
func (s *Server) StatsSnapshot() Stats {
	st := Stats{
		UptimeSec:   time.Since(s.start).Seconds(),
		Workers:     s.cfg.Workers,
		QueueDepth:  s.sched.Len(),
		QueueCap:    s.cfg.QueueDepth,
		Jobs:        make(map[JobState]int),
		Submitted:   atomic.LoadInt64(&s.submitted),
		Rejected:    atomic.LoadInt64(&s.rejected),
		RateLimited: atomic.LoadInt64(&s.rateLimited),
		RateClients: s.limiter.clientCount(),
		CacheHits:   atomic.LoadInt64(&s.cacheHits),
		Runs:        atomic.LoadInt64(&s.runs),
		Cache:       s.cache.stats(),
		Fleet:       s.fleetStats(),
		Portfolio:   s.portfolioStats(),
		Scheduler:   s.schedulerStats(),
		WALErrors:   atomic.LoadInt64(&s.walErrors),
		Goroutines:  runtime.NumGoroutine(),
	}
	if s.store != nil {
		ss := s.store.Stats()
		st.Store = &ss
	}
	s.mu.Lock()
	for _, j := range s.jobs.byID {
		st.Jobs[j.State()]++
	}
	s.mu.Unlock()
	return st
}

// handleStatsz implements GET /statsz.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, s.StatsSnapshot())
}

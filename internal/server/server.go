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
	"strconv"
	"strings"
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

	// RatePerSec arms a per-client token-bucket rate limit on POST /v1/jobs
	// (0 disables). RateBurst is the bucket capacity (default 1 when armed).
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

	mu         sync.Mutex
	jobs       map[string]*Job
	jobOrder   []string // insertion order, for retention eviction
	nextID     int64
	groups     map[string]*group
	groupOrder []string
	nextBatch  int64
	nextPort   int64

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
		jobs:     make(map[string]*Job),
		groups:   make(map[string]*group),
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
		s.register(newRecoveredJob(d.Job, done, d.Key))
		s.bumpJobID(d.Job)
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
		j := newJob(p.Job, spec)
		j.client = sub.Client
		s.register(j)
		s.bumpJobID(p.Job)
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
		s.registerGroup(g)
		s.bumpGroupID(gr.Job)
		s.startGroupForwarders(g)
		keep = append(keep, gr)
	}
	// Fold the replayed history to one record per surviving job; this is
	// what bounds journal growth across restarts.
	if err := s.store.Compact(keep); err != nil {
		atomic.AddInt64(&s.walErrors, 1)
	}
	for _, j := range enqueue {
		if !s.sched.TryEnqueue(j, j.pri, j.client) {
			// More interrupted work than queue slots: fail the overflow
			// loudly rather than block startup.
			j.finishTerminal(StateFailed, nil, "job queue full during crash recovery")
			s.journal(store.Record{Kind: store.KindFailed, Job: j.ID, Key: j.Key,
				Data: []byte("job queue full during crash recovery")})
		}
	}
}

// bumpJobID advances the ID counter past a recovered job's numeric suffix so
// fresh submissions never collide with re-instated ones.
func (s *Server) bumpJobID(id string) {
	numeric := strings.TrimPrefix(id, "j")
	n, err := strconv.ParseInt(numeric, 10, 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	if n > s.nextID {
		s.nextID = n
	}
	s.mu.Unlock()
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
	for _, j := range s.jobs {
		if j.interrupt() {
			s.journal(store.Record{Kind: store.KindCanceled, Job: j.ID, Key: j.Key})
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// register stores a new job, evicting the oldest terminal records beyond the
// retention cap.
func (s *Server) register(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.jobs) >= s.cfg.MaxJobs {
		evicted := false
		for i, id := range s.jobOrder {
			if old, ok := s.jobs[id]; ok && old.State().Terminal() {
				delete(s.jobs, id)
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything live; let the map grow rather than drop state
		}
	}
	s.jobs[j.ID] = j
	s.jobOrder = append(s.jobOrder, j.ID)
}

func (s *Server) unregister(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	for i, jid := range s.jobOrder {
		if jid == id {
			s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
			break
		}
	}
}

// lookup finds a job by id.
func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) newJobID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return fmt.Sprintf("j%d", s.nextID)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeJSON(w, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit implements POST /v1/jobs: admission control (per-client rate
// limit and inflight quota), decode and validate, serve cache hits
// instantly, otherwise journal and enqueue with backpressure.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	client := clientKey(r)
	if wait, ok := s.limiter.allow(client, time.Now()); !ok {
		atomic.AddInt64(&s.rateLimited, 1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(wait)))
		httpError(w, http.StatusTooManyRequests,
			"rate limit exceeded for client %q; retry later", client)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, "request body: %v", err)
		return
	}
	spec, err := parseJobRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	atomic.AddInt64(&s.submitted, 1)

	if res, ok := s.cache.get(spec.key); ok {
		atomic.AddInt64(&s.cacheHits, 1)
		j := newCachedJob(s.newJobID(), spec, res)
		j.client = client
		s.register(j)
		s.respondJob(w, j, http.StatusOK)
		return
	}

	// The inflight quota gates real work only: cache hits above cost no
	// worker time and are always admitted.
	if s.cfg.MaxInflight > 0 && s.inflight(client) >= s.cfg.MaxInflight {
		atomic.AddInt64(&s.rateLimited, 1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"client %q has %d jobs in flight (max %d); retry later",
			client, s.cfg.MaxInflight, s.cfg.MaxInflight)
		return
	}

	j := newJob(s.newJobID(), spec)
	j.client = client
	s.register(j)
	// Journal before enqueue: once the client holds a 202, the submission is
	// durable — a crash between here and completion re-enqueues it.
	if s.store != nil {
		data, _ := json.Marshal(journalSubmission{Client: client, Req: spec.req})
		if err := s.store.Journal(store.Record{
			Kind: store.KindSubmitted, Job: j.ID, Key: j.Key, Data: data,
		}); err != nil {
			atomic.AddInt64(&s.walErrors, 1)
			s.unregister(j.ID)
			httpError(w, http.StatusInternalServerError, "journal submission: %v", err)
			return
		}
	}
	if s.sched.TryEnqueue(j, j.pri, client) {
		s.respondJob(w, j, http.StatusAccepted)
		return
	}
	s.unregister(j.ID)
	// Neutralize the submitted record: a rejected job must not be
	// resurrected by the next recovery.
	s.journal(store.Record{Kind: store.KindCanceled, Job: j.ID, Key: j.Key,
		Data: []byte("queue full")})
	atomic.AddInt64(&s.rejected, 1)
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusTooManyRequests,
		"queue full (%d jobs); retry later", s.cfg.QueueDepth)
}

// inflight counts one client's live (non-terminal) jobs.
func (s *Server) inflight(client string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.client == client && !j.State().Terminal() {
			n++
		}
	}
	return n
}

func (s *Server) respondJob(w http.ResponseWriter, j *Job, status int) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	w.WriteHeader(status)
	writeJSON(w, j.Snapshot())
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
	if j.requestCancel() && j.State() == StateCanceled {
		// Queued jobs cancel synchronously here (a running job's terminal
		// record is journaled by its worker at the stop boundary).
		s.journal(store.Record{Kind: store.KindCanceled, Job: j.ID, Key: j.Key})
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, j.Snapshot())
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
	for _, j := range s.jobs {
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

// QueueCap reports the configured queue capacity (for operators and tests).
func (s *Server) QueueCap() int { return s.cfg.QueueDepth }

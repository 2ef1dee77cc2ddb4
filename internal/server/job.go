package server

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/droute"
	"repro/internal/exper"
	"repro/internal/fleet"
	"repro/internal/netlist"
)

// Request-validation bounds. They protect the daemon, not the library: the
// batch CLIs impose no such limits.
const (
	maxBodyBytes    = 4 << 20 // request body cap
	maxNetlistBytes = 1 << 20 // inline netlist body cap
	maxCells        = 4096    // parsed design size cap
	maxTracks       = 200
	minTracks       = 4
	maxMovesPerCell = 64
	maxMaxTemps     = 1000
	maxChains       = 16
	maxSyncTemps    = 256
	maxCritWeight   = 100
)

// JobState is a job's position in the lifecycle state machine:
//
//	queued ──► running ──► done
//	   │          │  └────► failed
//	   └──────────┴───────► canceled
//
// done, failed and canceled are terminal.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobRequest is the wire shape of POST /v1/jobs. Exactly one of Design (a
// named synthetic benchmark) or Netlist (an inline netlist body) must be set.
type JobRequest struct {
	// Design names a built-in benchmark (tiny, s1, cse, ex1, bw, s1a, big529).
	Design string `json:"design,omitempty"`

	// Netlist is an inline netlist body; Format selects its syntax.
	Netlist string `json:"netlist,omitempty"`

	// Format is the inline netlist syntax: "net" (default), "blif" or "xnf".
	Format string `json:"format,omitempty"`

	// Tracks is the architecture's channel capacity (default 38). The array
	// geometry itself is derived from the design size exactly as the batch
	// flows do (ArchFor: 8 or 12 module rows at ~55% utilization).
	Tracks int `json:"tracks,omitempty"`

	// Priority is the scheduling class: "low", "normal" (the default) or
	// "high". It decides when the job runs, never what is computed, so it is
	// deliberately excluded from the result cache key.
	Priority string `json:"priority,omitempty"`

	// Config tunes the optimizer. Zero values select the library defaults.
	Config JobConfig `json:"config,omitempty"`
}

// JobConfig is the JSON-facing subset of core.Config accepted by the service.
// Every field can change the result; the engine's concurrency follows the
// executing process's GOMAXPROCS and is not part of a request.
type JobConfig struct {
	Seed          int64 `json:"seed,omitempty"`
	MovesPerCell  int   `json:"moves_per_cell,omitempty"`
	MaxTemps      int   `json:"max_temps,omitempty"`
	Chains        int   `json:"chains,omitempty"`
	SyncTemps     int   `json:"sync_temps,omitempty"`
	DisableTiming bool  `json:"disable_timing,omitempty"`

	// Criticality-weighted timing term (see core.Config). Result-affecting:
	// it enters the cache key whenever the term is on.
	CritWeight float64 `json:"crit_weight,omitempty"`

	// Detailed-router backend of the constructive pass (see droute.Backend;
	// "" = ordered). Result-affecting: it enters the cache key whenever a
	// non-default backend is selected.
	RouteBackend string `json:"route_backend,omitempty"`
}

// critOn reports whether the request enables the criticality extension.
func (c *JobConfig) critOn() bool { return c.CritWeight > 0 }

// routeOn reports whether the request selects a non-default route backend.
func (c *JobConfig) routeOn() bool {
	b, err := droute.ParseBackend(c.RouteBackend)
	return err == nil && b != droute.BackendOrdered
}

// jobSpec is a validated, canonicalized submission: the parsed netlist, its
// canonical .net serialization, and the deterministic cache key derived from
// everything that can influence the layout bytes. A spec that names a
// built-in design shares nl and canon with every other such spec
// (builtinDesign), so neither is ever written.
type jobSpec struct {
	req   JobRequest
	nl    *netlist.Netlist
	canon []byte         // canonical netlist serialization (WriteNet of the parsed design)
	key   string         // hex sha256 cache key
	pri   fleet.Priority // validated scheduling class (never part of key)
}

// parseJobRequest decodes, validates and canonicalizes one submission body.
func parseJobRequest(body []byte) (*jobSpec, error) {
	var req JobRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	return buildSpec(req)
}

// decodeStrict is the service's request decoding discipline: unknown fields
// and trailing data are errors.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request JSON: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("invalid request JSON: trailing data after object")
	}
	return nil
}

// buildSpec validates the request and resolves it to a canonical spec.
func buildSpec(req JobRequest) (*jobSpec, error) {
	if (req.Design == "") == (req.Netlist == "") {
		return nil, fmt.Errorf("exactly one of %q or %q must be set", "design", "netlist")
	}
	var (
		nl    *netlist.Netlist
		canon []byte // a built-in design's; an inline netlist's is written below
		err   error
	)
	switch {
	case req.Design != "":
		if req.Format != "" {
			return nil, fmt.Errorf("%q only applies to inline netlists", "format")
		}
		d, err := resolveDesign(req.Design)
		if err != nil {
			return nil, err
		}
		nl, canon = d.nl, d.canon
	default:
		if len(req.Netlist) > maxNetlistBytes {
			return nil, fmt.Errorf("inline netlist too large: %d bytes (max %d)", len(req.Netlist), maxNetlistBytes)
		}
		nl, err = netlist.Parse(strings.NewReader(req.Netlist), cmp.Or(req.Format, "net"))
		if err != nil {
			return nil, fmt.Errorf("netlist parse: %w", err)
		}
	}
	if nl.NumCells() == 0 {
		return nil, fmt.Errorf("netlist has no cells")
	}
	if nl.NumCells() > maxCells {
		return nil, fmt.Errorf("design too large: %d cells (max %d)", nl.NumCells(), maxCells)
	}
	if req.Tracks == 0 {
		req.Tracks = exper.DefaultTracks
	}
	if req.Tracks < minTracks || req.Tracks > maxTracks {
		return nil, fmt.Errorf("tracks %d out of range [%d, %d]", req.Tracks, minTracks, maxTracks)
	}
	pri, err := fleet.ParsePriority(req.Priority)
	if err != nil {
		return nil, err
	}
	if err := req.Config.validate(); err != nil {
		return nil, err
	}

	if canon == nil {
		if canon, err = canonical(nl); err != nil {
			return nil, err
		}
	}
	spec := &jobSpec{req: req, nl: nl, canon: canon, pri: pri}
	spec.key = spec.cacheKey()
	return spec, nil
}

// builtinDesign is a built-in design resolved once per process: the netlist
// exper.Design generates for the name and its canonical WriteNet bytes. Every
// spec that names the design shares the record, so both are read-only.
// Nothing mutates a *netlist.Netlist after netlist.Builder returns it (only
// the builder calls rebuildIndex), and nothing writes to canon.
type builtinDesign struct {
	nl    *netlist.Netlist
	canon []byte
}

// builtinDesigns maps a netgen.Profiles() name to its *builtinDesign. It is
// filled on first use and never stores an unknown name, so it holds at most
// one entry per profile. It is one table per process, not per Server:
// FleetExecutor parses leased specs without a server, and a record depends
// on the name alone, so every server and executor in the process shares it.
var builtinDesigns sync.Map

// resolveDesign returns the record of a built-in design, building it on the
// name's first use. Concurrent first uses may each build one; LoadOrStore
// keeps the first stored, so every spec shares that one.
func resolveDesign(name string) (*builtinDesign, error) {
	if d, ok := builtinDesigns.Load(name); ok {
		return d.(*builtinDesign), nil
	}
	nl, err := exper.Design(name)
	if err != nil {
		return nil, fmt.Errorf("unknown design %q", name)
	}
	canon, err := canonical(nl)
	if err != nil {
		return nil, err
	}
	d, _ := builtinDesigns.LoadOrStore(name, &builtinDesign{nl: nl, canon: canon})
	return d.(*builtinDesign), nil
}

// canonical is the netlist's canonical serialization, which the cache key
// hashes: a named design and an equivalent inline netlist share it.
func canonical(nl *netlist.Netlist) ([]byte, error) {
	var b bytes.Buffer
	if err := netlist.WriteNet(&b, nl); err != nil {
		return nil, fmt.Errorf("canonicalize netlist: %w", err)
	}
	return b.Bytes(), nil
}

func (c *JobConfig) validate() error {
	check := func(name string, v, max int) error {
		if v < 0 || v > max {
			return fmt.Errorf("config.%s %d out of range [0, %d]", name, v, max)
		}
		return nil
	}
	if c.Seed < 0 {
		return fmt.Errorf("config.seed must be non-negative")
	}
	if err := check("moves_per_cell", c.MovesPerCell, maxMovesPerCell); err != nil {
		return err
	}
	if err := check("max_temps", c.MaxTemps, maxMaxTemps); err != nil {
		return err
	}
	if err := check("chains", c.Chains, maxChains); err != nil {
		return err
	}
	if err := check("sync_temps", c.SyncTemps, maxSyncTemps); err != nil {
		return err
	}
	if c.CritWeight < 0 || c.CritWeight > maxCritWeight {
		return fmt.Errorf("config.crit_weight %g out of range [0, %d]", c.CritWeight, maxCritWeight)
	}
	if _, err := droute.ParseBackend(c.RouteBackend); err != nil {
		return fmt.Errorf("config.route_backend: unknown backend %q (want ordered, negotiated or lagrange)", c.RouteBackend)
	}
	return nil
}

// cacheKey hashes everything that determines the result bytes: the canonical
// netlist, the architecture parameters, and every result-affecting config
// field. Two requests with the same key produce bit-identical layouts (the
// determinism contract pinned by the golden/GOMAXPROCS-invariance tests), so
// a cache hit can be served without re-annealing. Priority is excluded: it is
// scheduling-only — it changes when a job runs, never what it computes, so
// the same design submitted at different priorities shares one cached
// result.
func (s *jobSpec) cacheKey() string {
	h := sha256.New()
	c := s.req.Config
	// "rl=false", "bias=0 damp=0" and "iters=0" spell the zero values of the
	// retired range_limit, crit_bias, crit_damping and route_iters fields.
	// Every request still accepted left them at zero, so keeping the text
	// keeps its key, and every result cached under it, unchanged.
	fmt.Fprintf(h, "fpgaprd/v1 tracks=%d seed=%d mpc=%d temps=%d chains=%d sync=%d rl=false dt=%t\n",
		s.req.Tracks, c.Seed, c.MovesPerCell, c.MaxTemps, c.Chains, c.SyncTemps, c.DisableTiming)
	// The criticality line is appended only when the term is on: crit-off
	// requests produce layouts bit-identical to the pre-extension engine, so
	// their keys — and any results already cached under them — stay valid.
	if c.critOn() {
		fmt.Fprintf(h, "crit=%g bias=0 damp=0\n", c.CritWeight)
	}
	// Same contract for the route backend: the line is appended only when a
	// non-default backend is selected, so ordered-backend requests keep their
	// pre-extension keys and cached results.
	if c.routeOn() {
		fmt.Fprintf(h, "route=%s iters=0\n", c.RouteBackend)
	}
	h.Write(s.canon)
	return hex.EncodeToString(h.Sum(nil))
}

// coreConfig maps the validated request onto the optimizer configuration.
// Cancel and Metrics are attached by the worker at run time.
func (s *jobSpec) coreConfig() core.Config {
	c := s.req.Config
	return core.Config{
		Seed:          c.Seed,
		MovesPerCell:  c.MovesPerCell,
		MaxTemps:      c.MaxTemps,
		Chains:        c.Chains,
		SyncTemps:     c.SyncTemps,
		DisableTiming: c.DisableTiming,
		CritWeight:    c.CritWeight,
		RouteBackend:  droute.Backend(c.RouteBackend),
	}
}

// designName is the display name of the submitted design.
func (s *jobSpec) designName() string {
	if s.req.Design != "" {
		return s.req.Design
	}
	if s.nl.Name != "" {
		return s.nl.Name
	}
	return "inline"
}

// JobStats is the report of a finished run: the quality record every report
// shares, plus the run's restarts and wall time.
type JobStats struct {
	exper.Quality
	Restarts int     `json:"restarts"`
	WallMS   float64 `json:"wall_ms"`
}

// JobResult is an immutable finished-run artifact: once stored on a job or in
// the cache it is never mutated, so it may be shared freely across jobs and
// served concurrently.
type JobResult struct {
	Layout []byte // layio serialization of the final layout
	Stats  JobStats
}

// journalSubmission is the WAL payload of a submitted record: everything
// needed to rebuild and re-enqueue the job after a restart. Req round-trips
// through buildSpec, which re-derives the identical cache key.
type journalSubmission struct {
	Client string     `json:"client,omitempty"`
	Req    JobRequest `json:"req"`
}

// journalCompletion is the WAL payload of a done record: the display
// metadata and stats needed to re-advertise the finished job after a
// restart. The layout bytes themselves live in the content-addressed blob
// store under the record's key.
type journalCompletion struct {
	Design string   `json:"design"`
	Cells  int      `json:"cells"`
	Nets   int      `json:"nets"`
	Stats  JobStats `json:"stats"`
}

// Job is one submission moving through the service.
type Job struct {
	ID      string
	Key     string
	spec    *jobSpec
	hub     *eventHub
	created time.Time
	client  string         // rate-limit + fair-queueing identity (header or remote addr)
	pri     fleet.Priority // scheduling class (from the validated request)

	// Recovered done jobs have no spec; their display metadata comes from
	// the journal instead, and their layout is read through the disk cache.
	design string
	cells  int
	nets   int

	mu        sync.Mutex
	state     JobState
	cancelReq bool // DELETE (or shutdown); heartbeat acks relay it to the worker
	started   time.Time
	finished  time.Time
	errMsg    string
	result    *JobResult
	cached    bool
}

// newJob builds a submitted job. A nil res queues it for a run; a cache
// hit passes the cached result, and the job is born done with no run behind
// it. The ID is assigned when the job is registered.
func newJob(spec *jobSpec, client string, res *JobResult) *Job {
	j := &Job{
		Key:     spec.key,
		spec:    spec,
		hub:     newEventHub(),
		created: time.Now(),
		client:  client,
		pri:     spec.pri,
		state:   StateQueued,
	}
	if res != nil {
		j.bornDone(res)
	} else {
		j.hub.state(StateQueued)
	}
	return j
}

// newRecoveredJob re-advertises a job that finished in a previous process
// life: born done, carrying the journaled stats, with its layout left on
// disk until someone asks for it (handleLayout reads through the cache).
func newRecoveredJob(done journalCompletion, key string) *Job {
	j := &Job{
		Key:     key,
		hub:     newEventHub(),
		created: time.Now(),
		design:  done.Design,
		cells:   done.Cells,
		nets:    done.Nets,
	}
	j.bornDone(&JobResult{Stats: done.Stats}) // Layout nil: lives on disk
	return j
}

// bornDone makes a new, unpublished job done with res: a cache hit or a
// result from an earlier process life.
func (j *Job) bornDone(res *JobResult) {
	j.state, j.result, j.cached = StateDone, res, true
	j.finished = j.created
	j.hub.state(StateDone)
	j.hub.finish()
}

// beginRunning moves queued → running; it returns false when the job was
// canceled while waiting in the queue (the worker then skips it).
func (j *Job) beginRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.hub.state(StateRunning)
	return true
}

// finishTerminal moves a live job into a terminal state. It reports false,
// changing nothing, when the job was terminal already, so exactly one caller
// journals the outcome.
func (j *Job) finishTerminal(state JobState, res *JobResult, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.result, j.errMsg = res, errMsg
	j.sealLocked(state)
	return true
}

// sealLocked enters a terminal state and seals the event stream.
func (j *Job) sealLocked(state JobState) {
	j.state = state
	j.finished = time.Now()
	j.hub.state(state)
	j.hub.finish()
}

// requestCancel implements DELETE: a queued job is canceled outright, a
// running job is flagged (its worker hears it on the next heartbeat and
// stops at the next temperature boundary or sync barrier), and a terminal
// job is untouched. It reports whether the request had any effect.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == StateQueued:
		j.cancelReq = true
		j.sealLocked(StateCanceled)
		return true
	case j.state == StateRunning && !j.cancelReq:
		j.cancelReq = true
		return true
	}
	return false
}

// interrupt is the shutdown path: a live job goes terminal canceled with no
// terminal record journaled, so its submitted record stays pending in the
// WAL and the next process life re-enqueues it. This is what makes a
// restart (graceful or SIGKILL) resume the promised work instead of silently
// dropping it. It reports whether a client had already asked to cancel the
// job, a cancellation the caller must journal.
func (j *Job) interrupt() (userCanceled bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	userCanceled = j.cancelReq
	j.cancelReq = true
	j.sealLocked(StateCanceled)
	return userCanceled
}

// requeueForRetry moves a running job whose lease expired back to queued so
// the scheduler can hand it to another worker. Retrying is safe because runs
// are deterministic per cache key: whichever worker finishes produces the
// same bytes. It reports (requeue, canceled): requeue means the caller must
// put the job back on the scheduler; canceled means a cancel arrived while
// the doomed worker held the lease, so the job went terminal canceled
// instead of retrying.
func (j *Job) requeueForRetry() (requeue, canceled bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return false, false
	}
	if j.cancelReq {
		j.sealLocked(StateCanceled)
		return false, true
	}
	j.state = StateQueued
	j.started = time.Time{}
	j.hub.state(StateQueued)
	return true, false
}

// cancelRequested reports whether a cancel has been requested.
func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelReq
}

// Snapshot returns the job's current wire-visible status.
func (j *Job) Snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.ID,
		State:    j.state,
		Design:   j.design,
		Cells:    j.cells,
		Nets:     j.nets,
		Cached:   j.cached,
		CacheKey: j.Key,
		Priority: j.pri.String(),
		Created:  j.created,
		Error:    j.errMsg,
	}
	if j.spec != nil {
		st.Design = j.spec.designName()
		st.Cells = j.spec.nl.NumCells()
		st.Nets = j.spec.nl.NumNets()
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.state == StateRunning {
		if temp := j.hub.latestTemp(); temp != nil {
			st.Progress = &JobProgress{
				Chain: temp.Chain,
				Step:  temp.Step,
				Cost:  temp.Cost,
				D:     temp.D,
				WCDPs: temp.WCD,
			}
		}
	}
	if j.state == StateDone && j.result != nil {
		stats := j.result.Stats
		st.Result = &stats
	}
	return st
}

// layoutBytes returns the serialized layout of a done job. A recovered done
// job reports ok with nil bytes: its layout lives in the disk cache and
// handleLayout reads it through under the job's key.
func (j *Job) layoutBytes() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone || j.result == nil {
		return nil, false
	}
	return j.result.Layout, true
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// JobProgress is the live view of a running job, taken from its most recent
// temperature event.
type JobProgress struct {
	Chain int     `json:"chain"`
	Step  int     `json:"step"`
	Cost  float64 `json:"cost"`
	D     int     `json:"unrouted"`
	WCDPs float64 `json:"critical_path_ps"`
}

// JobStatus is the wire shape of GET /v1/jobs/{id}.
type JobStatus struct {
	ID       string       `json:"id"`
	State    JobState     `json:"state"`
	Design   string       `json:"design"`
	Cells    int          `json:"cells"`
	Nets     int          `json:"nets"`
	Cached   bool         `json:"cached"`
	CacheKey string       `json:"cache_key"`
	Priority string       `json:"priority"`
	Created  time.Time    `json:"created"`
	Started  *time.Time   `json:"started,omitempty"`
	Finished *time.Time   `json:"finished,omitempty"`
	Error    string       `json:"error,omitempty"`
	Progress *JobProgress `json:"progress,omitempty"`
	Result   *JobStats    `json:"result,omitempty"`
}

// writeJSON writes v as an indented JSON response body.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeJSONCompact writes v as single-line JSON followed by a newline (the
// framing SSE data lines need).
func writeJSONCompact(w io.Writer, v any) error {
	return json.NewEncoder(w).Encode(v)
}

// Batch and portfolio serving: group endpoints that turn the daemon from
// "run one job" into a sweep engine.
//
//	POST   /v1/batches                 submit many netlists, one job each
//	POST   /v1/portfolios              submit one netlist × a config matrix
//	GET    /v1/{batches,portfolios}/{id}        aggregate status + member scoreboard
//	DELETE /v1/{batches,portfolios}/{id}        cancel every outstanding member
//	GET    /v1/{batches,portfolios}/{id}/events aggregated member SSE stream
//	GET    /v1/portfolios/{id}/layout           the champion layout, once final
//
// A group is bookkeeping over ordinary jobs: every member is a regular /v1/jobs
// job (individually addressable, scheduled through the same priority classes
// and fleet leases, journaled in the same WAL), attributed to the submitting
// client for fairness and quota purposes. One POST costs one rate-limit token
// regardless of member count; admission is all-or-nothing (members enqueue
// atomically or the whole group is rejected with 429). Members sharing a cache
// key dedup: within a group only the first occurrence gets a job, and a member
// whose key is already cached is born done without a run. The group's own WAL
// record maps group → member jobs, so a restart rebuilds the scoreboard from
// the recovered member records.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exper"
	"repro/internal/fleet"
	"repro/internal/portfolio"
	"repro/internal/store"
)

// Group kinds. The kind fixes the ID namespace ("b%d"/"p%d") and the URL
// collection name.
const (
	groupBatch     = "batch"
	groupPortfolio = "portfolio"
)

// maxBatchJobs caps one batch submission, matching the portfolio member cap.
const maxBatchJobs = portfolio.MaxMembers

// BatchRequest is the wire shape of POST /v1/batches: independent job
// requests admitted as one group.
type BatchRequest struct {
	Jobs []JobRequest `json:"jobs"`
}

// PortfolioRequest is the wire shape of POST /v1/portfolios: one base job
// request plus the matrix of member overrides. Matrix axes replace the base
// config's seed / effort knobs / route backend per member; empty axes
// inherit the base.
type PortfolioRequest struct {
	Design   string           `json:"design,omitempty"`
	Netlist  string           `json:"netlist,omitempty"`
	Format   string           `json:"format,omitempty"`
	Tracks   int              `json:"tracks,omitempty"`
	Priority string           `json:"priority,omitempty"`
	Config   JobConfig        `json:"config,omitempty"`
	Matrix   portfolio.Matrix `json:"matrix"`
}

// memberSpec is one validated group member: its canonical job spec and its
// scoreboard label.
type memberSpec struct {
	spec *jobSpec
	desc string
}

// parseBatchRequest decodes and validates one batch body into member specs.
func parseBatchRequest(body []byte) ([]memberSpec, error) {
	var req BatchRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	if len(req.Jobs) == 0 {
		return nil, fmt.Errorf("batch has no jobs")
	}
	if len(req.Jobs) > maxBatchJobs {
		return nil, fmt.Errorf("batch has %d jobs (max %d)", len(req.Jobs), maxBatchJobs)
	}
	specs := make([]memberSpec, 0, len(req.Jobs))
	for i, jr := range req.Jobs {
		spec, err := buildSpec(jr)
		if err != nil {
			return nil, fmt.Errorf("jobs[%d]: %w", i, err)
		}
		specs = append(specs, memberSpec{spec: spec, desc: spec.designName()})
	}
	return specs, nil
}

// parsePortfolioRequest decodes one portfolio body, resolves its matrix
// preset, expands the matrix, and validates every member as a full job spec.
func parsePortfolioRequest(body []byte) ([]memberSpec, error) {
	var req PortfolioRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	matrix := req.Matrix
	if matrix.Preset != "" {
		if matrix.Axes() {
			return nil, fmt.Errorf("matrix gives both a preset %q and explicit axes", matrix.Preset)
		}
		resolved, ok := exper.PortfolioMatrix(matrix.Preset)
		if !ok {
			return nil, fmt.Errorf("unknown matrix preset %q (have %v)", matrix.Preset, exper.PortfolioPresets())
		}
		matrix = resolved
	}
	members, err := matrix.Expand()
	if err != nil {
		return nil, err
	}
	base := JobRequest{
		Design: req.Design, Netlist: req.Netlist, Format: req.Format,
		Tracks: req.Tracks, Priority: req.Priority, Config: req.Config,
	}
	specs := make([]memberSpec, 0, len(members))
	for i := range members {
		m := &members[i]
		jr := base
		if m.Seed != 0 {
			jr.Config.Seed = m.Seed
		}
		if m.Effort.MovesPerCell != 0 {
			jr.Config.MovesPerCell = m.Effort.MovesPerCell
		}
		if m.Effort.MaxTemps != 0 {
			jr.Config.MaxTemps = m.Effort.MaxTemps
		}
		if m.Effort.Chains != 0 {
			jr.Config.Chains = m.Effort.Chains
		}
		if m.Backend != "" {
			jr.Config.RouteBackend = m.Backend
		}
		spec, err := buildSpec(jr)
		if err != nil {
			return nil, fmt.Errorf("member %d (%s): %w", m.Index, m.Desc(), err)
		}
		specs = append(specs, memberSpec{spec: spec, desc: m.Desc()})
	}
	return specs, nil
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

// group is one batch or portfolio: ordered members over ordinary jobs, plus
// an aggregated event hub. The member list is immutable after construction;
// only the cancellation flag needs the mutex.
type group struct {
	ID      string
	kind    string
	client  string
	created time.Time
	hub     *eventHub
	members []*groupMember

	mu        sync.Mutex
	cancelReq bool
}

// groupMember binds one matrix/batch position to its job. Members with equal
// cache keys share one job: DupOf points at the first occurrence.
type groupMember struct {
	Index int
	Desc  string
	Key   string
	DupOf int  // index of the identical earlier member, or -1
	Dedup bool // served from the result cache, no run behind it
	job   *Job // nil only when a recovered member's job and blob are both gone
}

// MemberStatus is one scoreboard row.
type MemberStatus struct {
	Index  int              `json:"index"`
	Desc   string           `json:"desc"`
	Job    string           `json:"job,omitempty"`
	State  JobState         `json:"state"`
	Cached bool             `json:"cached"`
	DupOf  *int             `json:"dup_of,omitempty"`
	Score  *portfolio.Score `json:"score,omitempty"`
	WallMS float64          `json:"wall_ms,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// GroupStatus is the wire shape of GET /v1/{batches,portfolios}/{id}: the
// live scoreboard plus, for portfolios, the champion-so-far (final once the
// group state is terminal).
type GroupStatus struct {
	ID          string         `json:"id"`
	Kind        string         `json:"kind"`
	State       JobState       `json:"state"`
	Created     time.Time      `json:"created"`
	Members     []MemberStatus `json:"members"`
	Champion    *int           `json:"champion,omitempty"`
	ChampionJob string         `json:"champion_job,omitempty"`
}

// Status snapshots the group: every member's state and score, the derived
// group state, and the champion under the deterministic (score, index)
// tie-break.
func (g *group) Status() GroupStatus {
	st := GroupStatus{ID: g.ID, Kind: g.kind, Created: g.created,
		Members: make([]MemberStatus, 0, len(g.members))}
	scored := make([]*portfolio.Score, len(g.members))
	allTerminal, anyRunning, anyDone, anyFailed, anyCanceled := true, false, false, false, false
	for i, m := range g.members {
		ms := MemberStatus{Index: m.Index, Desc: m.Desc}
		if m.DupOf >= 0 {
			d := m.DupOf
			ms.DupOf = &d
		}
		if m.job == nil {
			ms.State = StateCanceled
			ms.Error = "member result not recoverable from the journal"
		} else {
			snap := m.job.Snapshot()
			ms.Job = snap.ID
			ms.State = snap.State
			ms.Cached = snap.Cached
			ms.Error = snap.Error
			if snap.Result != nil {
				sc := snap.Result.Score()
				ms.Score = &sc
				ms.WallMS = snap.Result.WallMS
				scored[i] = &sc
			}
		}
		switch {
		case !ms.State.Terminal():
			allTerminal = false
			if ms.State == StateRunning {
				anyRunning = true
			}
		case ms.State == StateDone:
			anyDone = true
		case ms.State == StateFailed:
			anyFailed = true
		default:
			anyCanceled = true
		}
		st.Members = append(st.Members, ms)
	}
	g.mu.Lock()
	canceled := g.cancelReq
	g.mu.Unlock()
	switch {
	case !allTerminal && anyRunning:
		st.State = StateRunning
	case !allTerminal:
		st.State = StateQueued
	case canceled && anyCanceled:
		st.State = StateCanceled
	case anyDone:
		st.State = StateDone
	case anyFailed:
		st.State = StateFailed
	default:
		st.State = StateCanceled
	}
	if g.kind == groupPortfolio {
		if c := portfolio.Champion(scored); c >= 0 {
			st.Champion = &c
			st.ChampionJob = st.Members[c].Job
		}
	}
	return st
}

// terminal reports whether every member job has finished.
func (g *group) terminal() bool {
	for _, m := range g.members {
		if m.job != nil && !m.job.State().Terminal() {
			return false
		}
	}
	return true
}

// path is the group's resource URL.
func (g *group) path() string {
	if g.kind == groupBatch {
		return "/v1/batches/" + g.ID
	}
	return "/v1/portfolios/" + g.ID
}

// journalGroup is the WAL payload of a KindGroup record: enough to rebind the
// group to its member job records (and, for members whose job records are
// gone, to their result blobs by key) after a restart.
type journalGroup struct {
	Kind    string               `json:"kind"`
	Client  string               `json:"client,omitempty"`
	Members []journalGroupMember `json:"members"`
}

type journalGroupMember struct {
	Index int    `json:"index"`
	Job   string `json:"job"`
	Desc  string `json:"desc,omitempty"`
	Key   string `json:"key"`
	DupOf int    `json:"dup_of"`
}

// handleBatchSubmit implements POST /v1/batches.
func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	s.handleGroupSubmit(w, r, groupBatch, parseBatchRequest)
}

// handlePortfolioSubmit implements POST /v1/portfolios.
func (s *Server) handlePortfolioSubmit(w http.ResponseWriter, r *http.Request) {
	s.handleGroupSubmit(w, r, groupPortfolio, parsePortfolioRequest)
}

// handleGroupSubmit is the shared group admission path: one rate-limit token
// per POST, per-member cache dedup, all-or-nothing enqueue, then the group
// WAL record.
func (s *Server) handleGroupSubmit(w http.ResponseWriter, r *http.Request,
	kind string, parse func([]byte) ([]memberSpec, error)) {
	client := clientKey(r)
	// One POST is one token: a group counts once against the client's bucket
	// no matter how many members it expands to. The members still count
	// individually against the inflight quota below — the bucket limits
	// request rate, the quota limits concurrent work.
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
	specs, err := parse(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	atomic.AddInt64(&s.submitted, int64(len(specs)))

	g := &group{ID: s.newGroupID(kind), kind: kind, client: client,
		created: time.Now(), hub: newEventHub()}
	keyFirst := make(map[string]int, len(specs))
	var fresh, cached []*Job
	var pris []fleet.Priority
	for i, ms := range specs {
		m := &groupMember{Index: i, Desc: ms.desc, Key: ms.spec.key, DupOf: -1}
		if fi, ok := keyFirst[ms.spec.key]; ok {
			// Intra-group duplicate: share the first occurrence's job.
			m.DupOf = fi
			m.Dedup = g.members[fi].Dedup
			m.job = g.members[fi].job
			atomic.AddInt64(&s.dedupHits, 1)
		} else {
			keyFirst[ms.spec.key] = i
			if res, ok := s.cache.get(ms.spec.key); ok {
				atomic.AddInt64(&s.dedupHits, 1)
				j := newCachedJob(s.newJobID(), ms.spec, res)
				j.client = client
				m.job, m.Dedup = j, true
				cached = append(cached, j)
			} else {
				j := newJob(s.newJobID(), ms.spec)
				j.client = client
				m.job = j
				fresh = append(fresh, j)
				pris = append(pris, ms.spec.pri)
			}
		}
		g.members = append(g.members, m)
	}

	// The inflight quota gates real work only, but it gates all of it at
	// once: a group that would push the client over is rejected whole.
	if s.cfg.MaxInflight > 0 && s.inflight(client)+len(fresh) > s.cfg.MaxInflight {
		atomic.AddInt64(&s.rateLimited, 1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"client %q: %d new jobs would exceed the %d-job inflight quota; retry later",
			client, len(fresh), s.cfg.MaxInflight)
		return
	}

	// Journal every member submission before anything is enqueued, exactly
	// like single-job admission: once the client holds a 202, the whole
	// group's work is durable.
	if s.store != nil {
		for n, j := range fresh {
			data, _ := json.Marshal(journalSubmission{Client: client, Req: j.spec.req})
			if err := s.store.Journal(store.Record{
				Kind: store.KindSubmitted, Job: j.ID, Key: j.Key, Data: data,
			}); err != nil {
				atomic.AddInt64(&s.walErrors, 1)
				// Neutralize what was already journaled so recovery cannot
				// resurrect half a group.
				for _, p := range fresh[:n] {
					s.journal(store.Record{Kind: store.KindCanceled, Job: p.ID,
						Key: p.Key, Data: []byte("group admission aborted")})
				}
				httpError(w, http.StatusInternalServerError, "journal submission: %v", err)
				return
			}
		}
	}
	for _, j := range cached {
		s.register(j)
	}
	for _, j := range fresh {
		s.register(j)
	}
	if len(fresh) > 0 && !s.sched.TryEnqueueAll(fresh, pris, client) {
		for _, j := range fresh {
			s.unregister(j.ID)
			s.journal(store.Record{Kind: store.KindCanceled, Job: j.ID, Key: j.Key,
				Data: []byte("queue full")})
		}
		for _, j := range cached {
			s.unregister(j.ID)
		}
		atomic.AddInt64(&s.rejected, 1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"queue cannot admit %d jobs atomically (capacity %d); retry later",
			len(fresh), s.cfg.QueueDepth)
		return
	}
	// The group record goes in after the member submissions: a crash between
	// the two leaves plain jobs that still run to completion — only the
	// grouping is lost, never the work.
	s.journalGroupRecord(g)
	s.registerGroup(g)
	atomic.AddInt64(&s.groupsMade, 1)
	s.startGroupForwarders(g)
	status := http.StatusAccepted
	if len(fresh) == 0 {
		status = http.StatusOK // every member served from cache
	}
	s.respondGroup(w, g, status)
}

// journalGroupRecord appends the group's WAL record.
func (s *Server) journalGroupRecord(g *group) {
	if s.store == nil {
		return
	}
	jg := journalGroup{Kind: g.kind, Client: g.client,
		Members: make([]journalGroupMember, 0, len(g.members))}
	for _, m := range g.members {
		jm := journalGroupMember{Index: m.Index, Desc: m.Desc, Key: m.Key, DupOf: m.DupOf}
		if m.job != nil {
			jm.Job = m.job.ID
		}
		jg.Members = append(jg.Members, jm)
	}
	data, _ := json.Marshal(jg)
	s.journal(store.Record{Kind: store.KindGroup, Job: g.ID, Data: data})
}

// rebuildGroup rebinds a recovered group record to the jobs the journal
// replay re-instated. A member whose job record is gone (cache-hit admission
// is never journaled; retention may have evicted it) is re-advertised from
// its result blob when one survives, and shown canceled-unrecoverable
// otherwise.
func (s *Server) rebuildGroup(id string, jg journalGroup) *group {
	if (jg.Kind != groupBatch && jg.Kind != groupPortfolio) || len(jg.Members) == 0 {
		return nil
	}
	g := &group{ID: id, kind: jg.Kind, client: jg.Client,
		created: time.Now(), hub: newEventHub()}
	for _, jm := range jg.Members {
		m := &groupMember{Index: jm.Index, Desc: jm.Desc, Key: jm.Key, DupOf: jm.DupOf}
		switch {
		case jm.DupOf >= 0 && jm.DupOf < len(g.members):
			m.job = g.members[jm.DupOf].job
			m.Dedup = g.members[jm.DupOf].Dedup
		default:
			if j, ok := s.lookup(jm.Job); ok {
				m.job = j
			} else if res, ok := s.cache.get(jm.Key); ok {
				j := newRecoveredJob(jm.Job, journalCompletion{Stats: res.Stats}, jm.Key)
				j.client = jg.Client
				s.register(j)
				s.bumpJobID(jm.Job)
				m.job, m.Dedup = j, true
			}
		}
		g.members = append(g.members, m)
	}
	return g
}

// startGroupForwarders launches the SSE aggregation: one forwarder per
// unique member job republishing its state transitions into the group hub,
// plus a finisher that seals the group stream — appending the champion event
// first — once every member is terminal. All goroutines exit on shutdown
// because Close moves every live job terminal, which seals every member hub.
func (s *Server) startGroupForwarders(g *group) {
	var fwg sync.WaitGroup
	seen := make(map[string]bool, len(g.members))
	for _, m := range g.members {
		if m.job == nil || seen[m.job.ID] {
			continue
		}
		seen[m.job.ID] = true
		fwg.Add(1)
		s.wg.Add(1)
		go s.forwardMember(g, m, &fwg)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fwg.Wait()
		s.finishGroup(g)
	}()
}

// forwardMember follows one member job's hub until it seals, republishing
// state events as group member events.
func (s *Server) forwardMember(g *group, m *groupMember, fwg *sync.WaitGroup) {
	defer s.wg.Done()
	defer fwg.Done()
	cursor := 0
	for {
		evs, sealed, wake := m.job.hub.next(cursor)
		for i := range evs {
			if evs[i].Type != "state" {
				continue
			}
			g.hub.append(Event{Type: "member", Member: &MemberEvent{
				Index: m.Index, Job: m.job.ID, State: evs[i].State}})
		}
		cursor += len(evs)
		if len(evs) > 0 {
			continue // drain before sleeping
		}
		if sealed {
			return
		}
		<-wake
	}
}

// finishGroup emits the terminal group events and seals the stream.
func (s *Server) finishGroup(g *group) {
	st := g.Status()
	if st.Champion != nil {
		g.hub.append(Event{Type: "champion", Member: &MemberEvent{
			Index: *st.Champion, Job: st.ChampionJob, State: StateDone}})
	}
	g.hub.append(Event{Type: "state", State: st.State})
	g.hub.finish()
}

// groupFromRequest resolves {id} for a kind-specific endpoint.
func (s *Server) groupFromRequest(w http.ResponseWriter, r *http.Request, kind string) (*group, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	g, ok := s.groups[id]
	s.mu.Unlock()
	if !ok || g.kind != kind {
		httpError(w, http.StatusNotFound, "unknown %s %q", kind, id)
		return nil, false
	}
	return g, true
}

// handleGroupStatus implements GET /v1/{batches,portfolios}/{id}.
func (s *Server) handleGroupStatus(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		g, ok := s.groupFromRequest(w, r, kind)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, g.Status())
	}
}

// handleGroupCancel implements DELETE: every outstanding member job is
// canceled exactly as an individual DELETE /v1/jobs/{id} would.
func (s *Server) handleGroupCancel(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		g, ok := s.groupFromRequest(w, r, kind)
		if !ok {
			return
		}
		g.mu.Lock()
		g.cancelReq = true
		g.mu.Unlock()
		seen := make(map[string]bool, len(g.members))
		for _, m := range g.members {
			if m.job == nil || seen[m.job.ID] {
				continue
			}
			seen[m.job.ID] = true
			if m.job.requestCancel() && m.job.State() == StateCanceled {
				s.journal(store.Record{Kind: store.KindCanceled, Job: m.job.ID, Key: m.job.Key})
			}
		}
		s.respondGroup(w, g, http.StatusOK)
	}
}

// handleGroupEvents implements GET .../events: the aggregated member stream.
func (s *Server) handleGroupEvents(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		g, ok := s.groupFromRequest(w, r, kind)
		if !ok {
			return
		}
		s.streamHub(w, r, g.hub)
	}
}

// handlePortfolioLayout implements GET /v1/portfolios/{id}/layout: the
// champion member's layout, available once every member is terminal so the
// tie-break can never retroactively move.
func (s *Server) handlePortfolioLayout(w http.ResponseWriter, r *http.Request) {
	g, ok := s.groupFromRequest(w, r, groupPortfolio)
	if !ok {
		return
	}
	st := g.Status()
	if !st.State.Terminal() {
		httpError(w, http.StatusConflict,
			"portfolio %s is %s; the champion is not final", g.ID, st.State)
		return
	}
	if st.Champion == nil {
		httpError(w, http.StatusConflict,
			"portfolio %s has no finished member; no champion layout", g.ID)
		return
	}
	s.serveLayout(w, g.members[*st.Champion].job)
}

func (s *Server) respondGroup(w http.ResponseWriter, g *group, status int) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", g.path())
	w.WriteHeader(status)
	writeJSON(w, g.Status())
}

// registerGroup stores a group, evicting the oldest terminal groups beyond
// the retention cap.
func (s *Server) registerGroup(g *group) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.groups) >= s.cfg.MaxGroups {
		evicted := false
		for i, id := range s.groupOrder {
			if old, ok := s.groups[id]; ok && old.terminal() {
				delete(s.groups, id)
				s.groupOrder = append(s.groupOrder[:i], s.groupOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
	s.groups[g.ID] = g
	s.groupOrder = append(s.groupOrder, g.ID)
}

// newGroupID allocates the next ID in the kind's namespace.
func (s *Server) newGroupID(kind string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if kind == groupBatch {
		s.nextBatch++
		return fmt.Sprintf("b%d", s.nextBatch)
	}
	s.nextPort++
	return fmt.Sprintf("p%d", s.nextPort)
}

// bumpGroupID advances the matching counter past a recovered group's suffix.
func (s *Server) bumpGroupID(id string) {
	if len(id) < 2 {
		return
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	switch id[0] {
	case 'b':
		if n > s.nextBatch {
			s.nextBatch = n
		}
	case 'p':
		if n > s.nextPort {
			s.nextPort = n
		}
	}
	s.mu.Unlock()
}

// PortfolioStats is the portfolio section of /statsz.
type PortfolioStats struct {
	ActiveBatches    int              `json:"active_batches"`
	ActivePortfolios int              `json:"active_portfolios"`
	GroupsCreated    int64            `json:"groups_created"`
	MembersByState   map[JobState]int `json:"members_by_state"`
	DedupHits        int64            `json:"dedup_hits"`
}

// portfolioStats snapshots the group bookkeeping for /statsz.
func (s *Server) portfolioStats() PortfolioStats {
	ps := PortfolioStats{
		GroupsCreated:  atomic.LoadInt64(&s.groupsMade),
		DedupHits:      atomic.LoadInt64(&s.dedupHits),
		MembersByState: make(map[JobState]int),
	}
	s.mu.Lock()
	groups := make([]*group, 0, len(s.groups))
	for _, g := range s.groups {
		groups = append(groups, g)
	}
	s.mu.Unlock()
	for _, g := range groups {
		active := !g.terminal()
		switch {
		case active && g.kind == groupBatch:
			ps.ActiveBatches++
		case active:
			ps.ActivePortfolios++
		}
		for _, m := range g.members {
			if m.job == nil {
				ps.MembersByState[StateCanceled]++
			} else {
				ps.MembersByState[m.job.State()]++
			}
		}
	}
	return ps
}

// SchedulerStats is the scheduler section of /statsz: the aging quantum and
// the queue composition under the priority/fairness discipline.
type SchedulerStats struct {
	AgingStepMS int64          `json:"aging_step_ms"`
	Depth       int            `json:"depth"`
	ByClass     map[string]int `json:"by_class"`
	ByClient    map[string]int `json:"by_client"`
}

// schedulerStats snapshots the scheduler section of /statsz.
func (s *Server) schedulerStats() SchedulerStats {
	d := s.sched.Depths()
	return SchedulerStats{
		AgingStepMS: s.sched.AgingStep().Milliseconds(),
		Depth:       d.Total,
		ByClass:     d.ByClass,
		ByClient:    d.ByClient,
	}
}

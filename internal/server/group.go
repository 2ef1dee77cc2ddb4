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
// A group is bookkeeping over ordinary jobs: its members are admitted by the
// same admit path as a single POST /v1/jobs (one rate-limit token per POST,
// cache dedup, inflight quota, journal, all-or-nothing enqueue), so every
// member is a regular /v1/jobs job attributed to the submitting client.
// Members sharing a cache key dedup: within a group only the first
// occurrence gets a job, and a member whose key is already cached is born
// done without a run. The group's own WAL record maps group → member jobs,
// so a restart rebuilds the scoreboard from the recovered member records.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/portfolio"
	"repro/internal/store"
)

// Group kinds. The kind fixes the ID prefix (its first letter) and the URL
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
// request, whose fields sit at the top level of the body, plus the matrix
// of member overrides. Matrix axes replace the base config's seed / effort
// knobs / route backend per member; empty axes inherit the base.
type PortfolioRequest struct {
	JobRequest
	Matrix portfolio.Matrix `json:"matrix"`
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

// parsePortfolioRequest decodes one portfolio body, expands its matrix, and
// validates every member as a full job spec.
func parsePortfolioRequest(body []byte) ([]memberSpec, error) {
	var req PortfolioRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	members, err := req.Matrix.Expand()
	if err != nil {
		return nil, err
	}
	specs := make([]memberSpec, 0, len(members))
	for i := range members {
		m := &members[i]
		jr := req.JobRequest
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

// handleGroupSubmit admits the members like any job, then binds them into
// a group: its ID, its WAL record, its event forwarders. A rejected request
// never reaches here, so it uses up no group ID.
func (s *Server) handleGroupSubmit(w http.ResponseWriter, r *http.Request,
	kind string, parse func([]byte) ([]memberSpec, error)) {
	a := s.admit(w, r, parse)
	if a == nil {
		return
	}
	g := &group{kind: kind, client: a.client, created: time.Now(),
		hub: newEventHub(), members: a.members}
	s.mu.Lock()
	g.ID = s.ids.next(kind[0])
	s.groups.add(g.ID, g)
	s.mu.Unlock()
	// The group record goes in after the member submissions: a crash between
	// the two leaves plain jobs that still run to completion — only the
	// grouping is lost, never the work.
	s.journalGroupRecord(g)
	atomic.AddInt64(&s.groupsMade, 1)
	atomic.AddInt64(&s.dedupHits, int64(len(g.members)-a.queued))
	s.startGroupForwarders(g)
	status := http.StatusAccepted
	if a.queued == 0 {
		status = http.StatusOK // every member served from cache
	}
	respondAt(w, status, g.path(), g.Status())
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
				j := newRecoveredJob(journalCompletion{Stats: res.Stats}, jm.Key)
				j.client = jg.Client
				s.reinstate(jm.Job, j)
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
	g, ok := s.groups.byID[id]
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
			s.cancel(m.job)
		}
		respondAt(w, http.StatusOK, g.path(), g.Status())
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
	groups := make([]*group, 0, len(s.groups.byID))
	for _, g := range s.groups.byID {
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

package fleet

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// DefaultLeaseTTL is the heartbeat budget a lease gets when the coordinator
// configures none: long enough for several missed heartbeats on a loaded
// box, short enough that a crashed worker's job is retried promptly.
const DefaultLeaseTTL = 15 * time.Second

// Lease is one job checked out to one worker. It stays valid only while the
// worker heartbeats: every renewal pushes Expires forward by the TTL, and a
// lease that reaches Expires unrenewed is harvested by Expire and its job
// handed back for re-enqueue.
type Lease struct {
	ID      string
	Job     string
	Worker  string
	Granted time.Time
	Expires time.Time
}

// LeaseCounters is the lifetime tally a LeaseManager keeps for /statsz.
type LeaseCounters struct {
	Granted   int64 `json:"granted"`
	Renewed   int64 `json:"renewed"`
	Completed int64 `json:"completed"`
	Expired   int64 `json:"expired"`
}

// LeaseManager tracks the leases of every job currently checked out to a
// worker. It is pure bookkeeping: granting, renewing, completing and
// harvesting expiries are all O(1)/O(n) map operations under one mutex, and
// re-enqueue policy lives with the caller.
type LeaseManager struct {
	mu       sync.Mutex
	ttl      time.Duration
	clock    func() time.Time
	prefix   string // random per manager, so IDs never repeat across process lives
	nextID   int64
	leases   map[string]*Lease
	counters LeaseCounters
}

// idPrefix returns a random tag for lease and worker IDs. A worker can outlive
// a coordinator restart; with counters alone, the next process life would
// hand out the same IDs again and a stale worker could renew or complete a
// lease that now belongs to another job.
func idPrefix() string {
	var b [6]byte
	_, _ = rand.Read(b[:]) // cannot fail on supported platforms
	return hex.EncodeToString(b[:])
}

// NewLeaseManager builds a manager granting leases of the given TTL
// (<= 0 selects DefaultLeaseTTL). clock is the time source (nil = time.Now).
func NewLeaseManager(ttl time.Duration, clock func() time.Time) *LeaseManager {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if clock == nil {
		clock = time.Now
	}
	return &LeaseManager{ttl: ttl, clock: clock, prefix: idPrefix(), leases: make(map[string]*Lease)}
}

// TTL reports the configured lease duration.
func (m *LeaseManager) TTL() time.Duration { return m.ttl }

// Grant checks job out to worker and returns the new lease.
func (m *LeaseManager) Grant(job, worker string) Lease {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	now := m.clock()
	l := &Lease{
		ID:      fmt.Sprintf("l%s-%d", m.prefix, m.nextID),
		Job:     job,
		Worker:  worker,
		Granted: now,
		Expires: now.Add(m.ttl),
	}
	m.leases[l.ID] = l
	m.counters.Granted++
	return *l
}

// Renew pushes a lease's expiry forward by the TTL. It reports false for an
// unknown (completed or already expired) lease, or one held by another
// worker — the caller's signal to stop working on the job. A refused renewal
// leaves the lease untouched.
func (m *LeaseManager) Renew(id, worker string) (Lease, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.leases[id]
	if !ok || l.Worker != worker {
		return Lease{}, false
	}
	l.Expires = m.clock().Add(m.ttl)
	m.counters.Renewed++
	return *l, true
}

// Complete retires a lease, returning it exactly once. A second Complete —
// or one racing a harvested expiry, or one from a worker that does not hold
// the lease — reports false, which is what makes the completion path
// exactly-once: only the holder that wins this removal may publish the job's
// result.
func (m *LeaseManager) Complete(id, worker string) (Lease, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.leases[id]
	if !ok || l.Worker != worker {
		return Lease{}, false
	}
	delete(m.leases, id)
	m.counters.Completed++
	return *l, true
}

// Expire harvests every lease whose deadline has passed, removing and
// returning them. The caller re-enqueues the jobs; a late Complete from the
// original worker then finds its lease gone and is rejected.
func (m *LeaseManager) Expire(now time.Time) []Lease {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Lease
	for id, l := range m.leases {
		if now.After(l.Expires) {
			out = append(out, *l)
			delete(m.leases, id)
			m.counters.Expired++
		}
	}
	return out
}

// Active reports the number of live leases.
func (m *LeaseManager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.leases)
}

// Counters snapshots the lifetime tallies.
func (m *LeaseManager) Counters() LeaseCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters
}

// WorkerInfo is one registered worker's record.
type WorkerInfo struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	Registered time.Time `json:"registered"`
	LastSeen   time.Time `json:"last_seen"`
	Draining   bool      `json:"draining"`
	Completed  int64     `json:"completed"`
}

// Registry tracks registered workers: identity, liveness (LastSeen is
// touched by every lease/heartbeat/complete call) and drain state. Workers
// are never removed — the fleet is small and the history is useful — but a
// drained worker is refused new leases.
type Registry struct {
	mu      sync.Mutex
	clock   func() time.Time
	prefix  string // random per registry, like LeaseManager's
	nextID  int64
	workers map[string]*WorkerInfo
}

// NewRegistry builds an empty registry (nil clock = time.Now).
func NewRegistry(clock func() time.Time) *Registry {
	if clock == nil {
		clock = time.Now
	}
	return &Registry{clock: clock, prefix: idPrefix(), workers: make(map[string]*WorkerInfo)}
}

// Register admits a worker and returns its record.
func (r *Registry) Register(name string) WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	now := r.clock()
	w := &WorkerInfo{
		ID:         fmt.Sprintf("w%s-%d", r.prefix, r.nextID),
		Name:       name,
		Registered: now,
		LastSeen:   now,
	}
	r.workers[w.ID] = w
	return *w
}

// Get looks a worker up by ID.
func (r *Registry) Get(id string) (WorkerInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok {
		return WorkerInfo{}, false
	}
	return *w, true
}

// Touch records liveness; it reports false for an unknown worker.
func (r *Registry) Touch(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok {
		return false
	}
	w.LastSeen = r.clock()
	return true
}

// Drain flags a worker as draining: it keeps its active leases but is
// refused new ones. Reports false for an unknown worker.
func (r *Registry) Drain(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok {
		return false
	}
	w.Draining = true
	return true
}

// RecordCompletion bumps a worker's completed-job tally.
func (r *Registry) RecordCompletion(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.workers[id]; ok {
		w.Completed++
		w.LastSeen = r.clock()
	}
}

// Counts reports (registered, live within window, draining).
func (r *Registry) Counts(window time.Duration) (registered, live, draining int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cutoff := r.clock().Add(-window)
	for _, w := range r.workers {
		registered++
		if !w.LastSeen.Before(cutoff) {
			live++
		}
		if w.Draining {
			draining++
		}
	}
	return registered, live, draining
}

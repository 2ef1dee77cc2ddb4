// Per-client admission control on every submission POST (admit in
// server.go): a token-bucket rate limit plus a max-inflight-jobs quota, both
// keyed by the client identity (the X-Client-ID header when present, else
// the remote address host). Violations answer 429 with Retry-After, exactly
// like the queue's backpressure path — the service sheds load at the edge
// instead of letting one client starve the worker pool.
package server

import (
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

const (
	// maxClientKeyLen bounds the accepted client identity so a hostile
	// header cannot bloat the limiter's table.
	maxClientKeyLen = 128
	// bucketIdleTTL is how long an idle client's bucket is retained; pruning
	// keeps the table proportional to the set of recently active clients.
	bucketIdleTTL = 10 * time.Minute
	// prunePeriod spaces table sweeps.
	prunePeriod = time.Minute
)

// clientKey identifies the submitter for rate limiting and quotas.
func clientKey(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get("X-Client-ID")); id != "" {
		if len(id) > maxClientKeyLen {
			id = id[:maxClientKeyLen]
		}
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// rateLimiter is a table of per-client token buckets. Buckets refill
// continuously at rate tokens/sec up to burst; each submission spends one
// token. A zero rate disables the bucket check (the inflight quota, enforced
// by the server against its live job table, may still be active).
type rateLimiter struct {
	rate  float64
	burst float64

	mu        sync.Mutex
	clients   map[string]*bucket
	lastPrune time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rate float64, burst int) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		clients: make(map[string]*bucket),
	}
}

// allow spends one token from client's bucket. When the bucket is empty it
// reports false plus the duration until a token accrues (the Retry-After
// hint).
func (l *rateLimiter) allow(client string, now time.Time) (time.Duration, bool) {
	if l == nil || l.rate <= 0 {
		return 0, true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pruneLocked(now)
	b, ok := l.clients[client]
	if !ok {
		b = &bucket{tokens: l.burst, last: now}
		l.clients[client] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(l.burst, b.tokens+dt*l.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	return wait, false
}

// pruneLocked drops buckets idle past their TTL, at most once per
// prunePeriod. Callers hold l.mu.
func (l *rateLimiter) pruneLocked(now time.Time) {
	if now.Sub(l.lastPrune) < prunePeriod {
		return
	}
	l.lastPrune = now
	for key, b := range l.clients {
		if now.Sub(b.last) > bucketIdleTTL {
			delete(l.clients, key)
		}
	}
}

// clientCount reports the number of tracked client buckets (for /statsz).
func (l *rateLimiter) clientCount() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.clients)
}

// retryAfterSeconds rounds a wait up to the whole seconds Retry-After wants,
// never below 1.
func retryAfterSeconds(wait time.Duration) int {
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

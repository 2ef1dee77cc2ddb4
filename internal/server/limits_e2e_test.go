// HTTP-level admission-control tests: the per-client token bucket and the
// max-inflight quota on the submission POSTs, both answering 429 with
// Retry-After like the queue's backpressure path.
package server_test

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// submitAs posts a job body under an explicit client identity.
func submitAs(t *testing.T, base, client, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
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
	t.Cleanup(func() { resp.Body.Close() })
	io.Copy(io.Discard, resp.Body)
	return resp
}

// TestRateLimitHTTP exhausts one client's burst and requires 429 +
// Retry-After, while a different client identity stays admitted. The refill
// rate is negligible so the test never races the clock.
func TestRateLimitHTTP(t *testing.T) {
	srv, base := newTestService(t, server.Config{
		Workers: 1, QueueDepth: 8,
		RatePerSec: 0.001, RateBurst: 2,
	})
	// Invalid bodies still spend tokens — admission control runs before
	// parsing — which keeps this test independent of queue and workers.
	for i := 0; i < 2; i++ {
		if resp := submitAs(t, base, "tenant-a", `{}`); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("burst request %d: %d, want 400", i, resp.StatusCode)
		}
	}
	resp := submitAs(t, base, "tenant-a", `{}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate-limit 429 without Retry-After")
	}
	if resp := submitAs(t, base, "tenant-b", `{}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("independent client: %d, want 400 (admitted)", resp.StatusCode)
	}
	stats := srv.StatsSnapshot()
	if stats.RateLimited != 1 {
		t.Errorf("rate_limited = %d, want 1", stats.RateLimited)
	}
	if stats.RateClients < 2 {
		t.Errorf("rate_clients = %d, want >= 2", stats.RateClients)
	}
	if stats.Rejected != 0 {
		t.Errorf("rate-limit rejections leaked into the queue counter: %d", stats.Rejected)
	}
}

// TestInflightQuotaHTTP caps one client at a single live job: the second
// submission bounces with 429 until the first terminates, and other clients
// are unaffected.
func TestInflightQuotaHTTP(t *testing.T) {
	_, base := newTestService(t, server.Config{
		Workers: 1, QueueDepth: 8,
		MaxInflight: 1,
	})
	first := submitAs(t, base, "tenant-a", longJob(11))
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", first.StatusCode)
	}
	id := first.Header.Get("Location")
	id = strings.TrimPrefix(id, "/v1/jobs/")

	second := submitAs(t, base, "tenant-a", longJob(12))
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second inflight submit: %d, want 429", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Error("quota 429 without Retry-After")
	}
	if resp := submitAs(t, base, "tenant-b", longJob(13)); resp.StatusCode != http.StatusAccepted {
		t.Errorf("other client blocked by tenant-a's quota: %d", resp.StatusCode)
	}

	// Terminal jobs free the quota.
	cancelJob(t, base, id)
	waitState(t, base, id, server.StateCanceled, 5*time.Second)
	if resp := submitAs(t, base, "tenant-a", longJob(14)); resp.StatusCode != http.StatusAccepted {
		t.Errorf("submit after quota freed: %d, want 202", resp.StatusCode)
	}
}

// TestInflightQuotaConcurrent races 16 submissions from one client against a
// one-job inflight quota: at most one may be admitted. The quota check and
// the registration of the new jobs share one lock hold, so no submission
// can pass the check before another's job is counted, whether the request
// is a single job or a batch, and whether or not a WAL fsync sits between
// registration and enqueue.
func TestInflightQuotaConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name, path string
		store      bool
	}{
		{"jobs-memory", "/v1/jobs", false},
		{"jobs-store", "/v1/jobs", true},
		{"batches-store", "/v1/batches", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := server.Config{Workers: -1, QueueDepth: 32, MaxInflight: 1}
			if tc.store {
				st := openStore(t, t.TempDir())
				t.Cleanup(func() { st.Close() })
				cfg.Store = st
			}
			_, base := newTestService(t, cfg)
			const n = 16
			codes := make(chan int, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				body := tinySeed(i + 1)
				if tc.path == "/v1/batches" {
					body = `{"jobs":[` + body + `]}`
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					req, err := http.NewRequest(http.MethodPost, base+tc.path, strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					req.Header.Set("X-Client-ID", "tenant-a")
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					codes <- resp.StatusCode
				}()
			}
			wg.Wait()
			close(codes)
			accepted := 0
			for code := range codes {
				switch code {
				case http.StatusAccepted:
					accepted++
				case http.StatusTooManyRequests:
				default:
					t.Errorf("submission answered %d, want 202 or 429", code)
				}
			}
			if accepted > 1 {
				t.Errorf("%d submissions admitted under a one-job inflight quota", accepted)
			}
		})
	}
}

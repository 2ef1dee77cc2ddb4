// Command fpgaprd is the place-and-route job service daemon: the
// simultaneous place-and-route optimizer behind an HTTP/JSON API with a
// priority/fairness job scheduler, cancellation, a deterministic result
// cache, and per-temperature progress streaming over SSE. It is the
// coordinator of a worker fleet: its -workers in-process workers and any
// external fpgaprw processes lease jobs over /v1/fleet/ and stream results
// back.
//
// Usage:
//
//	fpgaprd                              # serve on :8080 with 2 workers, in-memory only
//	fpgaprd -addr :9000 -workers 4 -queue 32
//	fpgaprd -data-dir /var/lib/fpgaprd   # durable: WAL journal + disk layout cache
//	fpgaprd -workers 0                   # pure coordinator: fpgaprw workers do all runs
//
// With -data-dir, submissions are journaled before they are enqueued and
// finished layouts are written to a content-addressed disk cache (bounded by
// -disk-cache-bytes). On startup the journal is replayed: jobs interrupted
// by a crash or restart are re-enqueued and finished results are served from
// disk without recomputation. Without -data-dir the daemon behaves exactly
// as before: everything lives in memory and dies with the process.
//
// Submit and watch a job:
//
//	curl -d '{"design":"s1"}' localhost:8080/v1/jobs
//	curl localhost:8080/v1/jobs/j1/events        # SSE progress
//	curl localhost:8080/v1/jobs/j1/layout        # finished layout
//	curl -X DELETE localhost:8080/v1/jobs/j1     # cancel
//
// Sweeps: POST /v1/batches runs many netlists as one group, and POST
// /v1/portfolios expands one netlist across a (seed × effort × backend)
// matrix, scores every member, and serves the champion layout:
//
//	curl -d '{"design":"s1","matrix":{"preset":"seeds4"}}' localhost:8080/v1/portfolios
//	curl localhost:8080/v1/portfolios/p1            # live scoreboard + champion
//	curl localhost:8080/v1/portfolios/p1/layout     # champion layout, once final
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 2, "in-process optimizer runs (0 = pure coordinator, fleet workers only)")
		queue     = flag.Int("queue", 16, "bounded job queue depth (full queue answers 429)")
		cache     = flag.Int("cache", 128, "deterministic result cache entries")
		maxJobs   = flag.Int("max-jobs", 512, "retained job records (oldest terminal evicted)")
		maxGroups = flag.Int("max-groups", 64, "retained batch/portfolio records (oldest terminal evicted)")

		dataDir = flag.String("data-dir", "",
			"durable state directory: job journal + disk layout cache (empty = in-memory only)")
		diskCacheBytes = flag.Int64("disk-cache-bytes", 256<<20,
			"disk layout cache bound in bytes, LRU-evicted (needs -data-dir)")

		ratePerSec  = flag.Float64("rate-per-client", 0, "per-client job submissions per second (0 = unlimited)")
		rateBurst   = flag.Int("rate-burst", 8, "per-client token-bucket burst")
		maxInflight = flag.Int("max-inflight", 0, "per-client cap on live (queued+running) jobs (0 = unlimited)")

		leaseTTL = flag.Duration("lease-ttl", 0,
			"fleet lease heartbeat budget before a worker's job is re-enqueued (0 = default 15s)")
		agingStep = flag.Duration("aging-step", 0,
			"queue wait per one-class priority promotion (0 = default 30s, negative disables)")
	)
	flag.Parse()
	nWorkers := *workers
	if nWorkers == 0 {
		nWorkers = -1 // CLI 0 means coordinator-only; Config 0 means default
	}
	cfg := server.Config{
		Workers:      nWorkers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		MaxJobs:      *maxJobs,
		MaxGroups:    *maxGroups,
		RatePerSec:   *ratePerSec,
		RateBurst:    *rateBurst,
		MaxInflight:  *maxInflight,
		LeaseTTL:     *leaseTTL,
		AgingStep:    *agingStep,
	}
	if err := run(*addr, cfg, *dataDir, *diskCacheBytes); err != nil {
		fmt.Fprintln(os.Stderr, "fpgaprd:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg server.Config, dataDir string, diskCacheBytes int64) error {
	if dataDir != "" {
		st, err := store.Open(dataDir, diskCacheBytes)
		if err != nil {
			return err
		}
		defer st.Close()
		rec := st.Recovery()
		log.Printf("fpgaprd: opened store %s (recovered %d pending, %d finished; %d torn bytes dropped)",
			dataDir, len(rec.Pending), len(rec.Done), rec.WAL.TornBytes)
		cfg.Store = st
	}
	svc := server.New(cfg)
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		if cfg.Workers < 0 {
			log.Printf("fpgaprd: serving on %s (coordinator-only, queue %d)", addr, cfg.QueueDepth)
		} else {
			log.Printf("fpgaprd: serving on %s (%d workers, queue %d)", addr, cfg.Workers, cfg.QueueDepth)
		}
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("fpgaprd: %v, shutting down", sig)
	}

	// Cancel every live job first (which also ends its SSE stream; the runs
	// themselves stop at the next temperature boundary), then drain
	// connections.
	svc.Close()
	ctx, stop := context.WithTimeout(context.Background(), 30*time.Second)
	defer stop()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

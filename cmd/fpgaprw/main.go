// Command fpgaprw is the place-and-route fleet worker: it registers with an
// fpgaprd coordinator, leases jobs over the /v1/fleet/ work-dispatch
// protocol, runs the same deterministic executor the coordinator's
// in-process workers run, streams per-temperature progress back on its
// heartbeats, and completes each lease with the layout bytes. Because runs
// are bit-exact per cache key, any number of workers can serve the same
// queue — and a worker that crashes mid-job simply lets its lease expire, at
// which point the coordinator retries the job elsewhere with an identical
// outcome.
//
// Usage:
//
//	fpgaprw -coordinator http://coord:8080                # one run at a time
//	fpgaprw -coordinator http://coord:8080 -parallel 4    # four concurrent leases
//
// SIGINT/SIGTERM drains: in-flight runs finish and complete, then the
// process exits. A second signal exits immediately (the coordinator recovers
// the abandoned leases by expiry).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "http://localhost:8080", "coordinator base URL")
		name        = flag.String("name", "", "worker display name (default: hostname)")
		parallel    = flag.Int("parallel", 1, "concurrent leased runs (each registers as its own worker)")
		pollWait    = flag.Duration("poll-wait", 2*time.Second, "lease long-poll window")
		heartbeat   = flag.Duration("heartbeat", 0, "lease renewal cadence (0 = follow the coordinator)")
	)
	flag.Parse()
	if *parallel < 1 {
		*parallel = 1
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "fpgaprw"
		}
		*name = host
	}
	if err := run(*coordinator, *name, *parallel, *pollWait, *heartbeat); err != nil {
		fmt.Fprintln(os.Stderr, "fpgaprw:", err)
		os.Exit(1)
	}
}

func run(coordinator, name string, parallel int, pollWait, heartbeat time.Duration) error {
	workers := make([]*fleet.Worker, parallel)
	for i := range workers {
		wname := name
		if parallel > 1 {
			wname = fmt.Sprintf("%s/%d", name, i)
		}
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: coordinator,
			Name:        wname,
			Execute:     server.FleetExecutor(),
			PollWait:    pollWait,
			Heartbeat:   heartbeat,
		})
		if err != nil {
			return err
		}
		workers[i] = w
	}

	var wg sync.WaitGroup
	errc := make(chan error, parallel)
	for _, w := range workers {
		wg.Add(1)
		go func(w *fleet.Worker) {
			defer wg.Done()
			if err := w.Run(); err != nil {
				errc <- err
			}
		}(w)
	}
	log.Printf("fpgaprw: %d lease loop(s) against %s", parallel, coordinator)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case <-done:
	case err := <-errc:
		for _, w := range workers {
			w.Kill()
		}
		wg.Wait()
		return err
	case sig := <-sigc:
		log.Printf("fpgaprw: %v, draining (signal again to abandon runs)", sig)
		for _, w := range workers {
			w.Drain()
		}
		select {
		case <-done:
		case <-sigc:
			for _, w := range workers {
				w.Kill()
			}
		}
		wg.Wait()
	}
	return nil
}

package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// ExecResult is one finished optimizer run, as the Executor reports it:
// either Canceled (the cancel channel fired and the run stopped at a
// boundary), or a done result carrying the serialized layout plus stats
// JSON. Errors travel on the Executor's error return instead.
type ExecResult struct {
	Canceled bool
	Layout   []byte
	Stats    json.RawMessage
}

// Executor runs one leased job: spec is the coordinator's validated job
// request verbatim, cancel fires when the coordinator asks the run to stop
// (or the worker is killed), and progress receives per-temperature records
// for the heartbeat loop to ship. cmd/fpgaprw injects the real optimizer;
// tests inject wrappers.
type Executor func(spec json.RawMessage, cancel <-chan struct{}, progress metrics.Collector) (ExecResult, error)

// WorkerConfig wires a Worker to its coordinator.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Name is the worker's display name (required).
	Name string
	// Execute runs one leased job (required).
	Execute Executor
	// Client is the HTTP client (nil selects a default with a timeout
	// comfortably above PollWait).
	Client *http.Client
	// Heartbeat overrides the coordinator-advertised renewal cadence
	// (0 = follow the coordinator).
	Heartbeat time.Duration
	// PollWait is the lease long-poll window (default 2s, capped at the
	// protocol's MaxWaitMS).
	PollWait time.Duration
	// RetryEvery spaces retries after transport errors (default 200ms).
	RetryEvery time.Duration
}

// Worker is the lease → execute → heartbeat → complete loop. Run blocks
// until Drain (finish the current job, then exit), Kill (abandon everything
// mid-flight — the crash-simulation hook the fault-injection tests use), or
// the coordinator refuses the worker as draining.
type Worker struct {
	cfg       WorkerConfig
	client    *http.Client
	heartbeat time.Duration

	id string

	stopOnce sync.Once
	stop     chan struct{}
	killOnce sync.Once
	kill     chan struct{}
	done     chan struct{}

	// stallHB simulates a partitioned worker: the run continues but
	// heartbeats stop, so the coordinator expires the lease out from under
	// a worker that is still computing.
	stallHB atomic.Bool
}

// NewWorker builds a worker; Run starts it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, errors.New("fleet: worker needs a coordinator URL")
	}
	if cfg.Name == "" {
		return nil, errors.New("fleet: worker needs a name")
	}
	if cfg.Execute == nil {
		return nil, errors.New("fleet: worker needs an executor")
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 2 * time.Second
	}
	if cfg.PollWait > MaxWaitMS*time.Millisecond {
		cfg.PollWait = MaxWaitMS * time.Millisecond
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 200 * time.Millisecond
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.PollWait + 30*time.Second}
	}
	return &Worker{
		cfg:    cfg,
		client: client,
		stop:   make(chan struct{}),
		kill:   make(chan struct{}),
		done:   make(chan struct{}),
	}, nil
}

// ID returns the coordinator-assigned worker ID (empty before Run
// registers).
func (w *Worker) ID() string { return w.id }

// Drain asks the worker to finish its current job and exit.
func (w *Worker) Drain() { w.stopOnce.Do(func() { close(w.stop) }) }

// Kill abandons everything immediately: heartbeats stop, the in-flight run
// is cancelled and its result discarded without a complete call. From the
// coordinator's side this is indistinguishable from a crash — the lease
// expires and the job is re-enqueued elsewhere.
func (w *Worker) Kill() { w.killOnce.Do(func() { close(w.kill) }) }

// StallHeartbeats freezes (or resumes) heartbeat sending while the run
// continues — the partitioned-worker fault the e2e tests inject.
func (w *Worker) StallHeartbeats(stall bool) { w.stallHB.Store(stall) }

// Done is closed when Run returns.
func (w *Worker) Done() <-chan struct{} { return w.done }

// errDraining reports the coordinator refusing leases because this worker
// was drained.
var errDraining = errors.New("fleet: worker drained by coordinator")

// Run registers with the coordinator and serves leases until Drain, Kill or
// a coordinator-side drain. Transport errors back off and retry — a worker
// outlives coordinator restarts.
func (w *Worker) Run() error {
	defer close(w.done)
	if err := w.register(); err != nil {
		return err
	}
	for {
		if w.interrupted() {
			return nil
		}
		grant, ok, err := w.acquire()
		switch {
		case errors.Is(err, errDraining):
			return nil
		case err != nil:
			if !w.sleep(w.cfg.RetryEvery) {
				return nil
			}
			continue
		case !ok:
			continue // long poll elapsed with no work
		}
		w.runLease(grant)
	}
}

func (w *Worker) interrupted() bool {
	select {
	case <-w.stop:
		return true
	case <-w.kill:
		return true
	default:
		return false
	}
}

// sleep waits d, reporting false when the worker was stopped or killed.
func (w *Worker) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-w.stop:
		return false
	case <-w.kill:
		return false
	case <-t.C:
		return true
	}
}

// register announces the worker, retrying transport errors until admitted
// or interrupted.
func (w *Worker) register() error {
	for {
		var resp RegisterResponse
		code, err := w.post("/v1/fleet/workers", &RegisterRequest{Name: w.cfg.Name}, &resp)
		if err == nil && code == http.StatusOK {
			if err := resp.Validate(); err != nil {
				return err
			}
			w.id = resp.WorkerID
			w.heartbeat = time.Duration(resp.HeartbeatMS) * time.Millisecond
			if w.cfg.Heartbeat > 0 {
				w.heartbeat = w.cfg.Heartbeat
			}
			return nil
		}
		if err == nil {
			return fmt.Errorf("fleet: register: coordinator answered %d", code)
		}
		if !w.sleep(w.cfg.RetryEvery) {
			return nil
		}
	}
}

// acquire asks for one lease, long-polling PollWait server-side.
func (w *Worker) acquire() (LeaseGrant, bool, error) {
	var grant LeaseGrant
	code, err := w.post("/v1/fleet/lease", &LeaseRequest{
		WorkerID: w.id,
		WaitMS:   w.cfg.PollWait.Milliseconds(),
	}, &grant)
	if err != nil {
		return LeaseGrant{}, false, err
	}
	switch code {
	case http.StatusOK:
		if err := grant.Validate(); err != nil {
			return LeaseGrant{}, false, err
		}
		return grant, true, nil
	case http.StatusNoContent:
		return LeaseGrant{}, false, nil
	case http.StatusConflict:
		return LeaseGrant{}, false, errDraining
	case http.StatusNotFound:
		// Coordinator restarted and lost the registration: re-register.
		if err := w.register(); err != nil {
			return LeaseGrant{}, false, err
		}
		return LeaseGrant{}, false, nil
	}
	return LeaseGrant{}, false, fmt.Errorf("fleet: lease: coordinator answered %d", code)
}

// runLease executes one granted job with a heartbeat loop alongside, then
// completes the lease (unless killed — a killed worker vanishes silently).
func (w *Worker) runLease(grant LeaseGrant) {
	cancel := make(chan struct{})
	var cancelOnce sync.Once
	cancelFn := func() { cancelOnce.Do(func() { close(cancel) }) }
	buf := NewProgressBuffer()
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go w.heartbeatLoop(grant.LeaseID, buf, cancelFn, hbStop, hbDone)

	res, err := w.cfg.Execute(grant.Spec, cancel, buf)
	close(hbStop)
	<-hbDone
	select {
	case <-w.kill:
		return // abandoned: no completion, the lease dies of expiry
	default:
	}
	w.complete(grant.LeaseID, res, err, buf.Drain())
}

// heartbeatLoop renews the lease and ships buffered progress every
// w.heartbeat until hbStop. A Cancel ack or a 410 (lease lost) cancels the
// run; transport errors are skipped — the lease tolerates several missed
// beats before expiring.
func (w *Worker) heartbeatLoop(leaseID string, buf *ProgressBuffer, cancelFn func(), hbStop, hbDone chan struct{}) {
	defer close(hbDone)
	hb := w.heartbeat
	if hb <= 0 {
		hb = time.Second
	}
	t := time.NewTicker(hb)
	defer t.Stop()
	for {
		select {
		case <-hbStop:
			return
		case <-w.kill:
			cancelFn()
			return
		case <-t.C:
			if w.stallHB.Load() {
				continue
			}
			var ack HeartbeatResponse
			code, err := w.post("/v1/fleet/leases/"+leaseID+"/heartbeat", &HeartbeatRequest{
				WorkerID: w.id,
				Progress: buf.Drain(),
			}, &ack)
			if err != nil {
				continue
			}
			if code == http.StatusGone {
				// The lease expired under us (coordinator re-enqueued the
				// job); stop burning cycles on a result nobody will accept.
				cancelFn()
				return
			}
			if code == http.StatusOK && ack.Cancel {
				cancelFn()
			}
		}
	}
}

// complete retires the lease with the run's outcome. A 410 means the lease
// expired first and another worker owns the job now — the result is simply
// dropped (it would have been bit-identical anyway). Transport errors retry
// a few times; an unreachable coordinator then behaves exactly like a
// worker crash, which the lease protocol already covers.
func (w *Worker) complete(leaseID string, res ExecResult, execErr error, tail []ProgressEvent) {
	req := CompleteRequest{WorkerID: w.id, Progress: tail}
	switch {
	case execErr != nil:
		req.Status = StatusFailed
		req.Error = execErr.Error()
		if len(req.Error) > maxErrorLen {
			req.Error = req.Error[:maxErrorLen]
		}
	case res.Canceled:
		req.Status = StatusCanceled
	default:
		req.Status = StatusDone
		req.Layout = res.Layout
		req.Stats = res.Stats
	}
	for attempt := 0; attempt < 5; attempt++ {
		if _, err := w.post("/v1/fleet/leases/"+leaseID+"/complete", &req, nil); err == nil {
			return
		}
		if !w.sleep(w.cfg.RetryEvery) {
			return
		}
	}
}

// post sends one JSON message and decodes a 200 response into resp (when
// non-nil). Non-200 statuses are returned for the caller to interpret; only
// transport failures are errors.
func (w *Worker) post(path string, req Message, resp Message) (int, error) {
	if err := req.Validate(); err != nil {
		return 0, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	hreq, err := http.NewRequest(http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := w.client.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, hresp.Body)
		hresp.Body.Close()
	}()
	if hresp.StatusCode == http.StatusOK && resp != nil {
		data, err := io.ReadAll(io.LimitReader(hresp.Body, 64<<20))
		if err != nil {
			return 0, err
		}
		if err := UnmarshalMessage(data, resp); err != nil {
			return 0, err
		}
	}
	return hresp.StatusCode, nil
}

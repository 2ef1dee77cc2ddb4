// Package fleet is the distributed work-dispatch layer that turns the
// single-process fpgaprd daemon into a coordinator/worker fleet:
//
//   - Scheduler: the queue discipline that replaces the plain FIFO — three
//     priority classes (low/normal/high) with aging so low-priority work
//     cannot starve, and per-client round-robin fair queueing inside each
//     class.
//   - LeaseManager + Registry: job leases with heartbeat renewal and
//     expiry (a crashed or partitioned worker's job is detected and handed
//     back for re-enqueue), plus worker registration and drain.
//   - Wire protocol (wire.go): the small HTTP/JSON messages workers and
//     coordinator exchange — register, lease, heartbeat, complete — with
//     strict decoding and validation (fuzzed by FuzzLeaseProtocol).
//   - Worker (worker.go): the lease → execute → heartbeat → complete loop
//     that cmd/fpgaprw and the coordinator's own in-process workers both
//     run; the actual optimizer run is injected as an Executor so this
//     package never depends on the server.
//
// The package is deliberately mechanism, not policy: it knows nothing about
// netlists or layouts. Job payloads travel as opaque JSON (the coordinator's
// validated JobRequest), results as opaque layout bytes plus stats JSON, and
// progress as metrics records. Retry safety comes from the layer above: jobs
// are deterministic for their cache key, so a lease that expires and runs
// again elsewhere produces bit-identical bytes.
package fleet

import "fmt"

// Priority is a job's scheduling class. Higher classes are always served
// first; aging promotes waiting jobs one class per AgingStep so a sustained
// high-priority load cannot starve the low class. Priority is deliberately
// not part of the result cache key: it changes when work runs, never what is
// computed.
type Priority uint8

const (
	PriorityLow Priority = iota
	PriorityNormal
	PriorityHigh

	// numPriorities bounds per-class arrays.
	numPriorities
)

// ParsePriority maps the wire spelling of a priority class. The empty string
// selects PriorityNormal (the documented default for POST /v1/jobs); any
// other unknown spelling is an error the caller should surface as a 400.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "":
		return PriorityNormal, nil
	case "low":
		return PriorityLow, nil
	case "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	}
	return PriorityNormal, fmt.Errorf("unknown priority %q (want low, normal or high)", s)
}

// String returns the wire spelling of the class.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityHigh:
		return "high"
	}
	return "normal"
}

// The executor: the one place a job's optimizer runs. Every worker — the
// in-process ones and cmd/fpgaprw alike — plugs it into its lease loop, so a
// run is validate → architect → anneal → route → serialize wherever it
// happens. Determinism is what makes the whole lease protocol sound: given
// the same spec, this function produces bit-identical layout bytes on any
// worker.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/fleet"
	"repro/internal/layio"
	"repro/internal/metrics"
)

// FleetExecutor returns the executor a fleet worker plugs into its lease
// loop: it parses the coordinator's spec with the exact validation the submit
// path used, runs the simultaneous flow, and reports the layout plus a
// JobStats JSON document as the completion stats. The cancel channel stops
// the run at the next temperature boundary / sync barrier, and a cancelled
// run reports no layout — the partial state is never served.
func FleetExecutor() fleet.Executor {
	return func(specJSON json.RawMessage, cancel <-chan struct{}, progress metrics.Collector) (fleet.ExecResult, error) {
		spec, err := parseJobRequest(specJSON)
		if err != nil {
			return fleet.ExecResult{}, fmt.Errorf("leased spec: %w", err)
		}
		start := time.Now()
		a, err := exper.ArchFor(spec.nl, spec.req.Tracks)
		if err != nil {
			return fleet.ExecResult{}, fmt.Errorf("architecture: %w", err)
		}
		cfg := spec.coreConfig()
		cfg.Cancel, cfg.Metrics = cancel, progress
		o, err := core.New(a, spec.nl, cfg)
		if err != nil {
			return fleet.ExecResult{}, fmt.Errorf("optimizer: %w", err)
		}
		o, res := o.RunParallel()
		if res.Cancelled {
			return fleet.ExecResult{Canceled: true}, nil
		}
		var layout bytes.Buffer
		if err := layio.Write(&layout, o.P, o.Rts); err != nil {
			return fleet.ExecResult{}, fmt.Errorf("serialize layout: %w", err)
		}
		stats, err := json.Marshal(JobStats{
			Quality:  exper.QualityOf(res),
			Restarts: res.Restarts,
			WallMS:   float64(time.Since(start)) / float64(time.Millisecond),
		})
		if err != nil {
			return fleet.ExecResult{}, fmt.Errorf("marshal stats: %w", err)
		}
		return fleet.ExecResult{Layout: layout.Bytes(), Stats: stats}, nil
	}
}

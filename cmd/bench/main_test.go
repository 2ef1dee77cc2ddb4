package main

import (
	"strings"
	"testing"
)

// Both gate flags select a -compare mode; run must refuse the pair before
// doing any work rather than silently keep one of them.
func TestRunRejectsBothGates(t *testing.T) {
	err := run(runOpts{
		effortName: "fast", seed: 1, designCSV: "tiny", out: "-",
		compare: "BENCH_baseline.json", timingGate: true, routeGate: true,
	})
	if err == nil || !strings.Contains(err.Error(), "-timing-gate") || !strings.Contains(err.Error(), "-route-gate") {
		t.Fatalf("run with both gates = %v, want an error naming both flags", err)
	}
}

package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/seq"
)

// Ablation benchmarks quantify the design choices DESIGN.md calls out: the
// pinmap component of the state, the missing-channel gradient inside the D
// term, the timing term and the sequential baselines. Each runs its flow on
// the cse benchmark and reports worst-case delay and unrouted nets, so
// variants can be compared from one `go test -bench=Ablation` run.

func runAblation(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	nl, err := exper.Design("cse")
	if err != nil {
		b.Fatal(err)
	}
	a, err := exper.ArchFor(nl, exper.DefaultTracks)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cfg := core.Config{Seed: 1, MovesPerCell: 6, MaxTemps: 60}
		mutate(&cfg)
		o, err := core.New(a, nl, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res := o.Run()
		b.ReportMetric(res.WCD/1000, "wcd-ns")
		b.ReportMetric(float64(res.D), "unrouted")
	}
}

// BenchmarkAblationBaseline is the reference configuration.
func BenchmarkAblationBaseline(b *testing.B) {
	runAblation(b, func(c *core.Config) {})
}

// BenchmarkAblationNoPinmaps removes pinmap reassignment from the move set.
func BenchmarkAblationNoPinmaps(b *testing.B) {
	runAblation(b, func(c *core.Config) { c.DisablePinmapMoves = true })
}

// BenchmarkAblationNoDCGradient reverts the D term to the paper's bare net
// count.
func BenchmarkAblationNoDCGradient(b *testing.B) {
	runAblation(b, func(c *core.Config) { c.DCFraction = -1 })
}

// BenchmarkAblationWirabilityOnly drops the timing term (the Table-2
// configuration), isolating how much the timing pressure costs in runtime.
func BenchmarkAblationWirabilityOnly(b *testing.B) {
	runAblation(b, func(c *core.Config) { c.DisableTiming = true })
}

// BenchmarkAblationTimingDrivenSeq runs the stronger sequential baseline
// (two-pass criticality-weighted placement) for comparison against both the
// plain sequential flow and the simultaneous optimizer.
func BenchmarkAblationTimingDrivenSeq(b *testing.B) {
	nl, err := exper.Design("cse")
	if err != nil {
		b.Fatal(err)
	}
	a, err := exper.ArchFor(nl, exper.DefaultTracks)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cfg := seq.Config{Seed: 1, TimingDriven: true}
		cfg.Place.MovesPerCell = 6
		cfg.Place.MaxTemps = 60
		res, err := seq.Run(a, nl, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WCD/1000, "wcd-ns")
		b.ReportMetric(float64(res.UnroutedNets), "unrouted")
	}
}

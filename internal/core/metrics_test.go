package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/metrics"
)

// TestMetricsMatchAnnealTotals runs the serial engine with a Summary attached
// and checks the collector's aggregates against the engine's own Result: one
// TempRecord per temperature plus the warmup walk, and move/accept totals in
// exact agreement.
func TestMetricsMatchAnnealTotals(t *testing.T) {
	a, nl := smallDesign(t)
	sum := metrics.NewSummary()
	o, err := New(a, nl, Config{Seed: 1, MovesPerCell: 4, MaxTemps: 12, Metrics: sum})
	if err != nil {
		t.Fatal(err)
	}
	res := o.Run()

	tot := sum.Totals()
	if tot.Temps != res.Anneal.Temps+1 {
		t.Errorf("temp records = %d, want %d (Temps+warmup)", tot.Temps, res.Anneal.Temps+1)
	}
	if tot.Moves != res.Anneal.TotalMoves {
		t.Errorf("moves = %d, want %d", tot.Moves, res.Anneal.TotalMoves)
	}
	if tot.Accepted != res.Anneal.Accepted {
		t.Errorf("accepted = %d, want %d", tot.Accepted, res.Anneal.Accepted)
	}
	// The optimizer rips and reroutes on every spatial move and pushes
	// incremental delay updates into the analyzer; an anneal with zero router
	// or STA activity means the counters are disconnected.
	if tot.RipUps == 0 || tot.GRouteAttempts == 0 || tot.DRouteAttempts == 0 {
		t.Errorf("router counters flatlined: rip-ups %d, groute %d, droute %d",
			tot.RipUps, tot.GRouteAttempts, tot.DRouteAttempts)
	}
	if tot.STAUpdates == 0 || tot.STACellsRelaxed == 0 {
		t.Errorf("STA counters flatlined: updates %d, relaxed %d", tot.STAUpdates, tot.STACellsRelaxed)
	}
	if tot.PhaseDur[metrics.PhaseInit] <= 0 || tot.PhaseDur[metrics.PhaseAnneal] <= 0 {
		t.Errorf("phase timers: init %v, anneal %v, want both > 0",
			tot.PhaseDur[metrics.PhaseInit], tot.PhaseDur[metrics.PhaseAnneal])
	}
	if tot.LastTemp.Step != res.Anneal.Temps {
		t.Errorf("last temp record step = %d, want %d", tot.LastTemp.Step, res.Anneal.Temps)
	}
}

// TestTempRecordsCarryAllWork checks that the per-temperature work deltas
// add up to the engine's whole work: on a serial run with timing on that
// ends fully routed, so that no repair move works outside a temperature, the
// records' sum is exactly what the fabric and the analyzer counted between
// New and the end of Run. No count is dropped or counted twice.
func TestTempRecordsCarryAllWork(t *testing.T) {
	a, nl := smallDesign(t)
	sum := metrics.NewSummary()
	o, err := New(a, nl, Config{Seed: 1, MovesPerCell: 4, MaxTemps: 12, Metrics: sum})
	if err != nil {
		t.Fatal(err)
	}
	start := o.work()
	res := o.Run()
	if !res.FullyRouted || res.RepairMoves != 0 {
		t.Fatalf("run ended with G=%d D=%d after %d repair moves, want fully routed by the anneal",
			res.G, res.D, res.RepairMoves)
	}
	want := o.work().Sub(start)
	if got := sum.Totals().Work; got != want {
		t.Errorf("temperature records sum to %+v, engine counted %+v", got, want)
	}
	if want.RipUps == 0 || want.STAUpdates == 0 {
		t.Errorf("engine counted no work: %+v", want)
	}
}

// TestMetricsDoNotPerturbResults runs the same seed with and without a
// collector and requires bit-identical outcomes: observation must never feed
// back into the optimization.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	a, nl := smallDesign(t)
	cfg := Config{Seed: 7, MovesPerCell: 4, MaxTemps: 10}

	plain, err := New(a, nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pres := plain.Run()

	cfg.Metrics = metrics.NewSummary()
	observed, err := New(a, nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ores := observed.Run()

	if pres.FinalCost != ores.FinalCost || pres.G != ores.G || pres.D != ores.D || pres.WCD != ores.WCD {
		t.Errorf("observed run diverged: cost %v/%v G %d/%d D %d/%d WCD %v/%v",
			pres.FinalCost, ores.FinalCost, pres.G, ores.G, pres.D, ores.D, pres.WCD, ores.WCD)
	}
	if pres.Anneal != ores.Anneal {
		t.Errorf("anneal results diverged: %+v vs %+v", pres.Anneal, ores.Anneal)
	}
}

// TestMetricsParallelChainRecords runs the portfolio engine and checks the
// per-chain records: one per chain, exactly one champion, and the champion
// index agreeing with the Result.
func TestMetricsParallelChainRecords(t *testing.T) {
	a, nl := smallDesign(t)
	sum := metrics.NewSummary()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	o, err := New(a, nl, Config{Seed: 3, MovesPerCell: 4, MaxTemps: 8,
		Chains: 3, Metrics: sum})
	if err != nil {
		t.Fatal(err)
	}
	_, res := o.RunParallel()
	if res.Chains != 3 {
		t.Fatalf("Result.Chains = %d, want 3", res.Chains)
	}

	tot := sum.Totals()
	if len(tot.Chains) != 3 {
		t.Fatalf("chain records = %d, want 3", len(tot.Chains))
	}
	champions := 0
	for i, c := range tot.Chains {
		if c.Chain != i {
			t.Errorf("chain record %d has index %d (want sorted by index)", i, c.Chain)
		}
		if c.Champion {
			champions++
			if i != res.Champion {
				t.Errorf("champion record is chain %d, Result says %d", i, res.Champion)
			}
		}
		if c.Temps == 0 || c.Moves == 0 {
			t.Errorf("chain %d: %d temps, %d moves, want both > 0", i, c.Temps, c.Moves)
		}
	}
	if champions != 1 {
		t.Errorf("%d champion records, want exactly 1", champions)
	}
}

// TestDisabledCollectorAddsNoMoveAllocations compares per-move allocations
// between a collector-enabled and a disabled (nil) optimizer over the same
// deterministic move sequence. The per-move hot path contains no collector
// calls at all — records are only emitted at temperature boundaries — so
// enabling collection must not add a single allocation per move.
func TestDisabledCollectorAddsNoMoveAllocations(t *testing.T) {
	a, nl := smallDesign(t)
	build := func(mc metrics.Collector) *Optimizer {
		o, err := New(a, nl, Config{Seed: 11, MovesPerCell: 4, MaxTemps: 8, Metrics: mc})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	measure := func(o *Optimizer) float64 {
		rng := rand.New(rand.NewSource(99))
		return testing.AllocsPerRun(2000, func() {
			if o.Propose(rng) <= 0 {
				o.Accept()
			} else {
				o.Reject()
			}
		})
	}
	disabled := measure(build(nil))
	enabled := measure(build(metrics.NewSummary()))
	if enabled > disabled {
		t.Errorf("collector added per-move allocations: %.3f enabled vs %.3f disabled",
			enabled, disabled)
	}
}

package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/layio"
	"repro/internal/metrics"
	"repro/internal/netgen"
)

// golden is the exact serial-engine outcome for a fixed design and seed,
// captured before the parallel annealing engine landed. The serial (1-chain)
// path is contractually bit-identical to the historical engine: any change to
// these numbers means the rng stream, the move sequence, or an ordering
// somewhere in the pipeline changed.
type golden struct {
	cfg        Config
	wcd        float64
	finalCost  float64
	temps      int
	totalMoves int
	accepted   int
	annealBest float64
	dyn        int
}

var goldenRuns = []golden{
	{
		cfg:        Config{Seed: 9, MovesPerCell: 3, MaxTemps: 25},
		wcd:        39617.731000000007,
		finalCost:  1,
		temps:      25,
		totalMoves: 3042,
		accepted:   1353,
		annealBest: 0.87185025591758358,
		dyn:        26,
	},
	{
		cfg:        Config{Seed: 4, MovesPerCell: 6, MaxTemps: 60},
		wcd:        36277.868000000002,
		finalCost:  1,
		temps:      49,
		totalMoves: 11700,
		accepted:   3455,
		annealBest: 0.88988227221724181,
		dyn:        50,
	},
}

// TestSerialGoldenValues pins the serial engine bit-for-bit against the
// pre-parallel-engine capture. Float comparisons are exact on purpose.
func TestSerialGoldenValues(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 12, 14))
	for i, g := range goldenRuns {
		o, err := New(a, nl, g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := o.Run()
		if r.G != 0 || r.D != 0 {
			t.Errorf("run %d: G=%d D=%d, want fully routed", i, r.G, r.D)
		}
		if r.WCD != g.wcd {
			t.Errorf("run %d: WCD = %.17g, golden %.17g", i, r.WCD, g.wcd)
		}
		if r.FinalCost != g.finalCost {
			t.Errorf("run %d: FinalCost = %.17g, golden %.17g", i, r.FinalCost, g.finalCost)
		}
		if r.Anneal.Temps != g.temps || r.Anneal.TotalMoves != g.totalMoves || r.Anneal.Accepted != g.accepted {
			t.Errorf("run %d: anneal (temps=%d moves=%d accepted=%d), golden (%d, %d, %d)",
				i, r.Anneal.Temps, r.Anneal.TotalMoves, r.Anneal.Accepted, g.temps, g.totalMoves, g.accepted)
		}
		if r.Anneal.BestCost != g.annealBest {
			t.Errorf("run %d: anneal best = %.17g, golden %.17g", i, r.Anneal.BestCost, g.annealBest)
		}
		if len(r.Dynamics) != g.dyn {
			t.Errorf("run %d: %d dynamics samples, golden %d", i, len(r.Dynamics), g.dyn)
		}
		if r.Chains != 0 || r.Restarts != 0 || r.ChainCosts != nil {
			t.Errorf("run %d: serial path reported parallel fields: %+v", i, r)
		}
	}
}

// TestRunParallelSingleChainIsSerial: Chains=1 must take the serial path
// exactly — same optimizer returned, same golden numbers.
func TestRunParallelSingleChainIsSerial(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 12, 14))
	g := goldenRuns[0]
	cfg := g.cfg
	cfg.Chains = 1
	o, err := New(a, nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	champ, r := o.RunParallel()
	if champ != o {
		t.Error("1-chain RunParallel must anneal the receiver in place")
	}
	if r.WCD != g.wcd || r.Anneal.BestCost != g.annealBest || r.Anneal.Accepted != g.accepted {
		t.Errorf("1-chain result diverged from golden: WCD=%.17g best=%.17g accepted=%d",
			r.WCD, r.Anneal.BestCost, r.Anneal.Accepted)
	}
}

// TestParallelDeterministicAcrossGOMAXPROCS: a K=4 run must reproduce the
// identical final result for a fixed seed across two runs with different
// GOMAXPROCS (and so chain worker counts) — scheduling must never leak into
// results.
func TestParallelDeterministicAcrossGOMAXPROCS(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 12, 14))
	run := func(procs int) Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		o, err := New(a, nl, Config{
			Seed: 9, MovesPerCell: 3, MaxTemps: 25,
			Chains: 4, SyncTemps: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		champ, r := o.RunParallel()
		if err := champ.Check(); err != nil {
			t.Fatalf("champion state inconsistent: %v", err)
		}
		return r
	}
	r1 := run(1)
	r2 := run(4)
	if r1.WCD != r2.WCD || r1.FinalCost != r2.FinalCost || r1.G != r2.G || r1.D != r2.D {
		t.Errorf("GOMAXPROCS changed the outcome: (WCD=%.17g cost=%.17g G=%d D=%d) vs (WCD=%.17g cost=%.17g G=%d D=%d)",
			r1.WCD, r1.FinalCost, r1.G, r1.D, r2.WCD, r2.FinalCost, r2.G, r2.D)
	}
	if r1.Champion != r2.Champion || r1.Restarts != r2.Restarts {
		t.Errorf("champion/restarts diverged: (%d,%d) vs (%d,%d)",
			r1.Champion, r1.Restarts, r2.Champion, r2.Restarts)
	}
	if len(r1.ChainCosts) != 4 || len(r2.ChainCosts) != 4 {
		t.Fatalf("chain costs missing: %v vs %v", r1.ChainCosts, r2.ChainCosts)
	}
	for i := range r1.ChainCosts {
		if r1.ChainCosts[i] != r2.ChainCosts[i] {
			t.Errorf("chain %d cost diverged: %.17g vs %.17g", i, r1.ChainCosts[i], r2.ChainCosts[i])
		}
	}
	if r1.Chains != 4 {
		t.Errorf("Chains = %d, want 4", r1.Chains)
	}
}

// TestParallelRunRoutesAndChecks: the champion state of a parallel run is a
// real, fully consistent layout.
func TestParallelRunRoutesAndChecks(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 12, 14))
	o, err := New(a, nl, Config{Seed: 4, MovesPerCell: 6, MaxTemps: 60, Chains: 3, SyncTemps: 6})
	if err != nil {
		t.Fatal(err)
	}
	champ, r := o.RunParallel()
	if !r.FullyRouted {
		t.Fatalf("parallel run not fully routed: G=%d D=%d", r.G, r.D)
	}
	if err := champ.Check(); err != nil {
		t.Fatal(err)
	}
	if r.WCD <= 0 {
		t.Error("WCD not positive")
	}
	if r.Champion < 0 || r.Champion >= 3 {
		t.Errorf("champion index %d out of range", r.Champion)
	}
}

// flowGolden is one fixed-seed flow of a benchmark workload and what it must
// produce: the SHA-256 of layio.Write's bytes and the fabric's router counts.
type flowGolden struct {
	design          string
	tracks, vtracks int // vtracks 0: arch.Default's
	cfg             Config
	layout          string
	stats           metrics.Work
}

// flowGoldens are perfbench's big529 effort on 38 tracks, where most moves
// retry stuck nets, and s1 on its constrained instance, where global routes
// fail and repair runs: the regimes the wake index and the cascade's skip
// rule serve, which the smaller golden runs above barely reach.
var flowGoldens = []flowGolden{
	{
		design: "big529", tracks: 38,
		cfg:    Config{Seed: 4, MovesPerCell: 1, MaxTemps: 10, RepairPasses: 1},
		layout: "5e23be0c5379a87821271ab7eb95c6b92abd1ff9d442b6afc194f119e36f7873",
		stats:  metrics.Work{RipUps: 44574, GRouteAttempts: 40241, GRouteFails: 60, DRouteAttempts: 197545, DRouteFails: 94596},
	},
	{
		design: "s1", tracks: 24, vtracks: 3,
		cfg:    Config{Seed: 4, MovesPerCell: 1, MaxTemps: 80},
		layout: "d91cea8a2f74c6125bd734a402b1c51f424c3def277c6874fd113a325edd799c",
		stats:  metrics.Work{RipUps: 79247, GRouteAttempts: 67931, GRouteFails: 37, DRouteAttempts: 244971, DRouteFails: 65076},
	},
}

// TestFlowGoldenLayouts pins the layout bytes and router counts of whole
// flows in the stuck-net regime. The array is exper.ArchFor's: 8 rows, 12
// above 350 cells, at about 55% slot use.
func TestFlowGoldenLayouts(t *testing.T) {
	for _, g := range flowGoldens {
		prof, ok := netgen.Profile(g.design)
		if !ok {
			t.Fatalf("no %s profile", g.design)
		}
		nl, err := netgen.Generate(prof)
		if err != nil {
			t.Fatal(err)
		}
		rows := 8
		if nl.NumCells() > 350 {
			rows = 12
		}
		p := arch.Default(rows, max(8, (nl.NumCells()*18/10+rows-1)/rows), g.tracks)
		if g.vtracks > 0 {
			p.VTracks = g.vtracks
		}
		o, err := New(arch.MustNew(p), nl, g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		o.Run()
		var buf bytes.Buffer
		if err := layio.Write(&buf, o.P, o.Rts); err != nil {
			t.Fatal(err)
		}
		if h := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); h != g.layout {
			t.Errorf("%s: layout sha256 %s, golden %s", g.design, h, g.layout)
		}
		if o.F.Stats != g.stats {
			t.Errorf("%s: route stats %+v, golden %+v", g.design, o.F.Stats, g.stats)
		}
	}
}

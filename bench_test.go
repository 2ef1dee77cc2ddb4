// Benchmarks regenerating each of the paper's evaluation artifacts (one per
// table/figure, §4) plus micro-benchmarks of the incremental mechanisms the
// formulation depends on (§3.3–§3.5). The per-table benches run a reduced
// workload so `go test -bench=.` stays affordable; `go run ./cmd/paper -all`
// regenerates the full tables at paper effort.
package repro

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/droute"
	"repro/internal/exper"
	"repro/internal/fabric"
	"repro/internal/groute"
	"repro/internal/layout"
	"repro/internal/netgen"
	"repro/internal/place"
	"repro/internal/seq"
	"repro/internal/timing"
)

func benchEffort() exper.Effort {
	return exper.Effort{Name: "bench", PlaceMovesPerCell: 6, PlaceMaxTemps: 60,
		CoreMovesPerCell: 6, CoreMaxTemps: 60, RouteAttempts: 4}
}

// BenchmarkTable1Timing regenerates a Table-1 row (timing improvement of
// simultaneous over sequential P&R) on the cse benchmark and reports the
// measured improvement as a metric.
func BenchmarkTable1Timing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table1([]string{"cse"}, benchEffort(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Err != "" {
			b.Fatalf("flow failed: %s", rows[0].Err)
		}
		b.ReportMetric(rows[0].ImprovePct, "%improvement")
	}
}

// BenchmarkTable2Wirability regenerates a Table-2 row (minimum tracks per
// channel) on the tiny design and reports both minima.
func BenchmarkTable2Wirability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table2([]string{"tiny"}, benchEffort(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].SeqTracks), "seq-tracks")
		b.ReportMetric(float64(rows[0].SimTracks), "sim-tracks")
	}
}

// BenchmarkFigure6Dynamics regenerates the annealing-dynamics trace.
func BenchmarkFigure6Dynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dyn, err := exper.Figure6("tiny", benchEffort(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(dyn)), "temps")
		b.ReportMetric(100*dyn[len(dyn)-1].Unrouted, "final-%unrouted")
	}
}

// BenchmarkFigure7Large routes the 529-cell design to completion (the paper
// spent ~8 hours of 1994 hardware here; one iteration is expected to take on
// the order of a minute).
func BenchmarkFigure7Large(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exper.Figure7(benchEffort(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if !res.FullyRouted {
			b.Fatal("big529 not fully routed")
		}
		b.ReportMetric(res.WCD/1000, "wcd-ns")
	}
}

// BenchmarkFlowRuntimeSeq and BenchmarkFlowRuntimeSim together reproduce the
// paper's runtime observation (sequential ~1h vs simultaneous ~3-4h on 1994
// hardware: a 3-4x ratio).
func BenchmarkFlowRuntimeSeq(b *testing.B) {
	nl, a := benchDesign(b, "cse")
	e := benchEffort()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := seq.Run(a, nl, seq.Config{
			Seed:          1,
			Place:         place.Config{Seed: 1, MovesPerCell: e.PlaceMovesPerCell, MaxTemps: e.PlaceMaxTemps},
			RouteAttempts: e.RouteAttempts,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowRuntimeSim(b *testing.B) {
	nl, a := benchDesign(b, "cse")
	e := benchEffort()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := core.New(a, nl, core.Config{Seed: 1, MovesPerCell: e.CoreMovesPerCell, MaxTemps: e.CoreMaxTemps})
		if err != nil {
			b.Fatal(err)
		}
		o.Run()
	}
}

// BenchmarkAnnealChains compares the serial engine against K-chain portfolio
// annealing at identical per-chain effort, on a routing-constrained instance
// (18 tracks, short schedule) where single-chain outcomes vary with the seed.
// The portfolio's champion routes the design completely where the serial run
// leaves nets unrouted — the quality gap shows in the final-cost and unrouted
// metrics. Wall-clock is the benchmark's own ns/op: chains step concurrently,
// so with K idle cores the K-chain run costs roughly serial wall-clock; on
// fewer cores it degrades gracefully toward K× (scheduling never changes the
// result either way).
func BenchmarkAnnealChains(b *testing.B) {
	for _, chains := range []int{1, 4} {
		b.Run(fmt.Sprintf("chains=%d", chains), func(b *testing.B) {
			nl, err := exper.Design("cse")
			if err != nil {
				b.Fatal(err)
			}
			a, err := exper.ArchFor(nl, 18)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := core.New(a, nl, core.Config{
					Seed: 1, MovesPerCell: 3, MaxTemps: 40,
					Chains: chains,
				})
				if err != nil {
					b.Fatal(err)
				}
				_, res := o.RunParallel()
				b.ReportMetric(res.WCD/1000, "wcd-ns")
				b.ReportMetric(res.FinalCost, "final-cost")
				b.ReportMetric(float64(res.D), "unrouted")
				b.ReportMetric(float64(res.Restarts), "restarts")
			}
		})
	}
}

func benchDesign(b *testing.B, name string) (*Netlist, *Arch) {
	b.Helper()
	nl, err := exper.Design(name)
	if err != nil {
		b.Fatal(err)
	}
	a, err := exper.ArchFor(nl, exper.DefaultTracks)
	if err != nil {
		b.Fatal(err)
	}
	return nl, a
}

// --- Micro-benchmarks of the in-the-loop mechanisms ---

// BenchmarkIncrementalMove measures one annealing move of the simultaneous
// optimizer: rip-up, incremental global + detailed reroute, incremental
// timing, and undo.
func BenchmarkIncrementalMove(b *testing.B) {
	nl, a := benchDesign(b, "s1")
	o, err := core.New(a, nl, core.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	// Settle into a mostly-routed state first.
	for i := 0; i < 2000; i++ {
		o.Propose(rng)
		o.Accept()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Propose(rng)
		if i%2 == 0 {
			o.Accept()
		} else {
			o.Reject()
		}
	}
}

// BenchmarkIncrementalMoveStarved measures one move of the reroute cascade
// right after core.New, while most nets are still unrouted: the per-move cost
// of a long list of stuck nets, against design size. x1 is big529 on
// exper.ArchFor's array (about 350 of its 513 nets unrouted); xK scales
// big529's netgen profile (inputs, outputs, sequential and combinational
// cells) by K, on 38 tracks and round(√(1.8·cells)/2.5) rows. Moves alternate
// between accept and reject, which keeps the placement random and the list
// long; run it at a fixed -benchtime count (e.g. 3000x) so every run walks
// the same moves.
func BenchmarkIncrementalMoveStarved(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("x%d", k), func(b *testing.B) {
			nl, a := scaledBig529(b, k)
			o, err := core.New(a, nl, core.Config{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			start := o.D()
			rng := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Propose(rng)
				if i%2 == 0 {
					o.Accept()
				} else {
					o.Reject()
				}
			}
			b.ReportMetric(float64(nl.NumCells()), "cells")
			b.ReportMetric(float64(start), "unrouted-at-start")
			b.ReportMetric(float64(o.D()), "unrouted-at-end")
		})
	}
}

// scaledBig529 is big529's profile scaled k times and its array: exper.ArchFor's
// for k = 1, else 38 tracks and rows growing with the square root of the cell
// count, so the array keeps its aspect instead of widening at 12 rows.
func scaledBig529(b *testing.B, k int) (*Netlist, *Arch) {
	if k == 1 {
		return benchDesign(b, "big529")
	}
	p, _ := netgen.Profile("big529")
	p.Name = fmt.Sprintf("big529x%d", k)
	p.Inputs, p.Outputs, p.Seq, p.Comb = k*p.Inputs, k*p.Outputs, k*p.Seq, k*p.Comb
	nl, err := netgen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	cells := nl.NumCells()
	rows := int(math.Round(math.Sqrt(1.8*float64(cells)) / 2.5))
	a, err := arch.New(arch.Default(rows, (cells*18/10+rows-1)/rows, exper.DefaultTracks))
	if err != nil {
		b.Fatal(err)
	}
	return nl, a
}

// BenchmarkElmoreNetDelay measures the detailed RC-tree evaluation of one
// routed net with a reused DelayCalc, as the move loop evaluates it.
func BenchmarkElmoreNetDelay(b *testing.B) {
	nl, a := benchDesign(b, "s1")
	rng := rand.New(rand.NewSource(3))
	p, err := layout.NewRandom(a, nl, rng)
	if err != nil {
		b.Fatal(err)
	}
	f := fabric.New(a)
	routes := make([]fabric.NetRoute, nl.NumNets())
	groute.RouteAll(f, p, routes)
	droute.RouteAllDetailed(f, routes, droute.DefaultCost(), 2, rng)
	// Find a multi-channel routed net.
	var target int32 = -1
	for id := range routes {
		if routes[id].DetailDone() && routes[id].HasTrunk {
			target = int32(id)
			break
		}
	}
	if target < 0 {
		b.Fatal("no routed trunk net")
	}
	var dc timing.DelayCalc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dc.NetDelays(p, target, &routes[target], 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalTiming measures one frontier propagation after a
// single-net delay change on a levelized design.
func BenchmarkIncrementalTiming(b *testing.B) {
	nl, err := exper.Design("s1")
	if err != nil {
		b.Fatal(err)
	}
	an, err := timing.NewAnalyzer(nl)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int32(rng.Intn(nl.NumNets()))
		d := make([]float64, len(nl.Nets[id].Sinks))
		for j := range d {
			d[j] = rng.Float64() * 1500
		}
		an.Begin()
		an.SetNetDelays(id, d)
		an.Propagate()
		an.Commit()
	}
}

// BenchmarkDetailedRouteChannel measures one segmented-channel track
// selection + allocation + release.
func BenchmarkDetailedRouteChannel(b *testing.B) {
	nl, a := benchDesign(b, "s1")
	rng := rand.New(rand.NewSource(5))
	p, err := layout.NewRandom(a, nl, rng)
	if err != nil {
		b.Fatal(err)
	}
	_ = p
	f := fabric.New(a)
	r := fabric.NetRoute{Global: true, Chans: []fabric.ChanAssign{{Ch: 3, Lo: 5, Hi: 25, Track: -1}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !droute.RouteChan(f, 1, &r, 0, droute.DefaultCost()) {
			b.Fatal("route failed")
		}
		droute.UnrouteChan(f, 1, &r, 0)
	}
}

// BenchmarkGlobalRoute measures one vertical-assignment attempt.
func BenchmarkGlobalRoute(b *testing.B) {
	nl, a := benchDesign(b, "s1")
	rng := rand.New(rand.NewSource(6))
	p, err := layout.NewRandom(a, nl, rng)
	if err != nil {
		b.Fatal(err)
	}
	f := fabric.New(a)
	// A multi-channel net.
	var target int32 = -1
	for id := range nl.Nets {
		var r fabric.NetRoute
		if groute.Route(f, p, int32(id), &r) && r.HasTrunk {
			groute.RipUp(f, int32(id), &r)
			target = int32(id)
			break
		}
		if r.Global {
			groute.RipUp(f, int32(id), &r)
		}
	}
	if target < 0 {
		b.Fatal("no trunk net found")
	}
	var r fabric.NetRoute
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !groute.Route(f, p, target, &r) {
			b.Fatal("route failed")
		}
		groute.RipUp(f, target, &r)
	}
}

// BenchmarkBaselinePlacement measures the sequential baseline's placer on a
// full design.
func BenchmarkBaselinePlacement(b *testing.B) {
	nl, a := benchDesign(b, "cse")
	for i := 0; i < b.N; i++ {
		if _, _, err := place.Place(a, nl, place.Config{Seed: 1, MovesPerCell: 6, MaxTemps: 60}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetlistGeneration measures synthetic benchmark construction.
func BenchmarkNetlistGeneration(b *testing.B) {
	p, _ := netgen.Profile("s1")
	for i := 0; i < b.N; i++ {
		if _, err := netgen.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

package repro_test

import (
	"fmt"
	"log"
	"os"
	"strings"

	"repro"
)

// Example runs the paper's simultaneous place-and-route, one annealing
// objective Cost = Wg·G + Wd·D + Wt·T over placement, global and detailed
// routing, on a 30-cell design ("s1" ... "big529" are the paper's).
func Example() {
	nl, err := repro.GenerateBenchmark("tiny")
	if err != nil {
		log.Fatal(err)
	}
	a, err := repro.ArchFor(nl, 24) // mixed segmentation, 24 tracks/channel
	if err != nil {
		log.Fatal(err)
	}
	lay, err := repro.Simultaneous(a, nl, repro.SimConfig{Seed: 1, MovesPerCell: 6, MaxTemps: 60})
	if err != nil {
		log.Fatal(err)
	}
	if err := lay.WriteSummary(os.Stdout); err != nil {
		log.Fatal(err)
	}
	// VerifyTiming runs the in-loop Elmore model again at wire load 1.10, so
	// a routed layout's agreement lies in [0.909, 1] by construction.
	wcd, agreement, err := lay.VerifyTiming()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-layout check %.2f ns (agreement %.3f)\n", wcd/1000, agreement)
	// The run report carries the Figure-6 dynamics trace.
	fmt.Printf("anneal: %d temperatures\n", len(lay.Sim.Dynamics))
	// Output:
	// design tiny: 30 cells (21 comb, 2 seq, 4+3 pads), 27 nets
	// array  8 rows x 8 cols, 24 tracks/channel, 5 vtracks/column
	// routing 100% complete
	// worst-case delay 23.11 ns
	// resources 57 horizontal segments, 72 programmed antifuses
	// post-layout check 23.69 ns (agreement 0.975)
	// anneal: 45 temperatures
}

// ExampleLayout_CriticalPaths lays out a design with the sequential flow and
// prints its three worst paths cell by cell.
func ExampleLayout_CriticalPaths() {
	nl, err := repro.GenerateBenchmark("tiny")
	if err != nil {
		log.Fatal(err)
	}
	a, err := repro.ArchFor(nl, 28)
	if err != nil {
		log.Fatal(err)
	}
	cfg := repro.SeqConfig{Seed: 1}
	cfg.Place.MovesPerCell = 8
	lay, err := repro.Sequential(a, nl, cfg)
	if err != nil {
		log.Fatal(err)
	}
	paths, err := lay.CriticalPaths(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("worst-case delay %.2f ns\n", lay.WCD/1000)
	for _, p := range paths {
		fmt.Printf("%.2f ns: %s\n", p.Arrival/1000, strings.Join(p.CellNames, " -> "))
	}
	// Output:
	// worst-case delay 24.73 ns
	// 24.73 ns: ff0 -> g1 -> g9 -> g11 -> g18 -> opad0
	// 23.56 ns: ff0 -> g1 -> g5 -> g10 -> g17 -> ff0
	// 23.25 ns: ff0 -> g1 -> g9 -> g14 -> g16 -> opad2
}

// ExampleSimultaneous_chains anneals four chains; every six temperatures the
// losers restart from a clone of the champion. Up to GOMAXPROCS chains step
// at once, and the result depends only on the seed and the chain count.
func ExampleSimultaneous_chains() {
	nl, err := repro.GenerateBenchmark("tiny")
	if err != nil {
		log.Fatal(err)
	}
	a, err := repro.ArchFor(nl, 24)
	if err != nil {
		log.Fatal(err)
	}
	lay, err := repro.Simultaneous(a, nl, repro.SimConfig{
		Seed: 1, MovesPerCell: 8, MaxTemps: 80, Chains: 4, SyncTemps: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	res := lay.Sim
	fmt.Printf("routed=%v worst-case delay %.2f ns\n", lay.FullyRouted, lay.WCD/1000)
	fmt.Printf("%d chains, champion %d, %d restarts\n", res.Chains, res.Champion, res.Restarts)
	// Output:
	// routed=true worst-case delay 21.38 ns
	// 4 chains, champion 0, 12 restarts
}

// ExampleTechMap legalizes a wide gate to 4-input modules.
func ExampleTechMap() {
	nl, err := repro.GenerateNetlist(repro.BenchmarkParams{
		Name: "x", Inputs: 3, Outputs: 2, Seq: 1, Comb: 10, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	mapped, st, err := repro.TechMap(nl, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("legal=%v mapped=%v\n", mapped.NumCells() > 0, st.CellsOut > 0)
	// Output: legal=true mapped=true
}

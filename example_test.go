package repro_test

import (
	"fmt"
	"log"

	"repro"
)

// Example demonstrates the complete simultaneous place-and-route flow on a
// small synthetic benchmark.
func Example() {
	nl, err := repro.GenerateBenchmark("tiny")
	if err != nil {
		log.Fatal(err)
	}
	a, err := repro.ArchFor(nl, 24)
	if err != nil {
		log.Fatal(err)
	}
	lay, err := repro.Simultaneous(a, nl, repro.SimConfig{Seed: 1, MovesPerCell: 6, MaxTemps: 60})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cells=%d routed=%v\n", nl.NumCells(), lay.FullyRouted)
	// Output: cells=30 routed=true
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

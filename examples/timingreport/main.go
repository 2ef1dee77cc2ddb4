// timingreport lays out a design and prints its top critical paths cell by
// cell.
//
//	go run ./examples/timingreport
//	go run ./examples/timingreport -design s1 -flow seq
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	design := flag.String("design", "tiny", "benchmark name")
	flow := flag.String("flow", "seq", "layout flow whose timing to inspect (sim or seq)")
	k := flag.Int("paths", 3, "number of critical paths to print")
	effort := flag.Int("effort", 8, "annealing moves per cell per temperature")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	nl, err := repro.GenerateBenchmark(*design)
	if err != nil {
		log.Fatal(err)
	}
	a, err := repro.ArchFor(nl, 28)
	if err != nil {
		log.Fatal(err)
	}
	var lay *repro.Layout
	if *flow == "sim" {
		lay, err = repro.Simultaneous(a, nl, repro.SimConfig{Seed: *seed, MovesPerCell: *effort, MaxTemps: 100})
	} else {
		cfg := repro.SeqConfig{Seed: *seed}
		cfg.Place.MovesPerCell = *effort
		lay, err = repro.Sequential(a, nl, cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	if !lay.FullyRouted {
		log.Fatalf("layout incomplete: %d nets unrouted", lay.Unrouted)
	}

	fmt.Printf("design %s (%s flow): worst-case delay %.2f ns\n\n", *design, *flow, lay.WCD/1000)
	paths, err := lay.CriticalPaths(*k)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range paths {
		fmt.Printf("path %d (%.2f ns): %s\n", i+1, p.Arrival/1000, strings.Join(p.CellNames, " -> "))
	}
}

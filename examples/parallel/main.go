// Parallel portfolio annealing: run four independent annealing chains that
// synchronize every few temperatures (losers restart from a clone of the
// champion) and keep the champion's layout. The result for a fixed
// (seed, chains) is deterministic regardless of core count; chains=1 is
// bit-identical to the serial engine.
//
//	go run ./examples/parallel
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	nl, err := repro.GenerateBenchmark("tiny")
	if err != nil {
		log.Fatal(err)
	}
	a, err := repro.ArchFor(nl, 24)
	if err != nil {
		log.Fatal(err)
	}

	// Four chains, synchronized every 6 temperatures. Up to GOMAXPROCS of
	// them step at once; that affects scheduling only, never the result.
	lay, err := repro.Simultaneous(a, nl, repro.SimConfig{
		Seed:         1,
		MovesPerCell: 8,
		MaxTemps:     80,
		Chains:       4,
		SyncTemps:    6,
	})
	if err != nil {
		log.Fatal(err)
	}

	if err := lay.WriteSummary(os.Stdout); err != nil {
		log.Fatal(err)
	}
	res := lay.Sim
	fmt.Printf("portfolio: %d chains, champion %d, %d elite-migration restarts\n",
		res.Chains, res.Champion, res.Restarts)
	for i, c := range res.ChainCosts {
		marker := " "
		if i == res.Champion {
			marker = "*"
		}
		fmt.Printf("  chain %d%s final annealing cost %.4f\n", i, marker, c)
	}
}

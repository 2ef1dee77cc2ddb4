// segmentation reconstructs the paper's Figure 2: with rigid channel
// segmentation, the placement with the smaller total net length can be
// unroutable while a longer alternative routes completely — which is why
// wirability cannot be predicted from net length at the placement level, and
// why placement leverage matters.
//
//	go run ./examples/segmentation
package main

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/droute"
	"repro/internal/fabric"
)

func main() {
	// One channel, one track, segmented [0,2) [2,6) [6,8) — the paper's "3
	// routing segments".
	p := arch.Default(1, 8, 1)
	p.SegPattern = []int{2, 4, 2}
	p.PhaseStep = 0
	a, err := arch.New(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("track segmentation: ")
	for _, s := range a.Seg[0] {
		fmt.Printf("[%d,%d) ", s.Start, s.End)
	}
	fmt.Print("\n\n")

	type net struct {
		name   string
		lo, hi int
	}
	try := func(title string, nets []net) {
		f := fabric.New(a)
		total := 0
		fmt.Println(title)
		for i, n := range nets {
			total += n.hi - n.lo
			r := fabric.NetRoute{Global: true, Chans: []fabric.ChanAssign{
				{Ch: 0, Lo: n.lo, Hi: n.hi, Track: -1},
			}}
			if droute.RouteChan(f, int32(i), &r, 0) {
				ca := r.Chans[0]
				fmt.Printf("  %s [%d,%d]: routed on segments %d..%d\n", n.name, n.lo, n.hi, ca.SegLo, ca.SegHi)
			} else {
				fmt.Printf("  %s [%d,%d]: UNROUTABLE (no free segment run covers it)\n", n.name, n.lo, n.hi)
			}
		}
		fmt.Printf("  total net length: %d\n\n", total)
	}

	// Left placement of Figure 2: shortest wirelength, but N2 and N3 both
	// need the middle segment.
	try("placement A (shorter nets):", []net{
		{"N1", 0, 1}, {"N2", 2, 3}, {"N3", 4, 5},
	})

	// Right placement: cell B moved; N3 grew, yet everything routes.
	try("placement B (cell B moved, longer nets):", []net{
		{"N1", 0, 1}, {"N2", 6, 7}, {"N3", 2, 5},
	})

	fmt.Println("The lower-wirelength placement is unroutable; the longer one routes —")
	fmt.Println("net-length/congestion estimates cannot see segment boundaries (paper §2.1).")
}

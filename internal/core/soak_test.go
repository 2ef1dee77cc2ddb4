package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/netgen"
	"repro/internal/netlist"
)

// TestSoakLongRandomWalk drives the optimizer through a long mixed sequence
// of accepted and rejected moves across several contention regimes, checking
// the full cross-structure invariants periodically. This is the long-horizon
// complement to the per-move undo tests.
func TestSoakLongRandomWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test in -short mode")
	}
	nl, err := netgen.Generate(netgen.Params{Name: "soak", Inputs: 6, Outputs: 5, Seq: 3, Comb: 60, Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	regimes := []struct {
		name   string
		tracks int
		vt     int
	}{
		{"generous", 24, 5},
		{"tight-horizontal", 8, 5},
		{"tight-vertical", 20, 1},
	}
	for _, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) {
			p := arch.Default(6, 20, rg.tracks)
			p.VTracks = rg.vt
			a := arch.MustNew(p)
			o, err := New(a, nl, Config{Seed: 13})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(14))
			for i := 0; i < 4000; i++ {
				d := o.Propose(rng)
				switch {
				case d <= 0 || rng.Float64() < 0.3:
					o.Accept()
				default:
					o.Reject()
				}
				if i%500 == 499 {
					if err := o.Check(); err != nil {
						t.Fatalf("%s: move %d: %v", rg.name, i, err)
					}
				}
			}
			if err := o.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// starvedDesign returns a 51-cell design on a 5 × 14 array with 6 tracks and
// vt vertical tracks per column, where many nets stay stuck.
func starvedDesign(t *testing.T, vt int) (*arch.Arch, *netlist.Netlist) {
	t.Helper()
	nl, err := netgen.Generate(netgen.Params{Name: "starve", Inputs: 5, Outputs: 4, Seq: 2, Comb: 40, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	p := arch.Default(5, 14, 6)
	p.VTracks = vt
	return arch.MustNew(p), nl
}

// TestSoakStarvedSkipRule drives random moves on starved arrays, where most
// moves leave nets stuck and the cascade passes over the ones that cannot
// route, with a full Check — which includes the free sets and the unrouted
// list — after every move. It also requires that nets were in fact passed
// over, so the check is not vacuous.
func TestSoakStarvedSkipRule(t *testing.T) {
	moves := 1500
	if testing.Short() {
		moves = 300
	}
	for _, vt := range []int{1, 2} {
		a, nl := starvedDesign(t, vt)
		o, err := New(a, nl, Config{Seed: 29})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		skipped := 0
		for i := 0; i < moves; i++ {
			o.Propose(rng)
			if rng.Intn(2) == 0 {
				o.Accept()
			} else {
				o.Reject()
			}
			if err := o.Check(); err != nil {
				t.Fatalf("VTracks %d, move %d: %v", vt, i, err)
			}
			for id := range o.Rts {
				if !o.Rts[id].DetailDone() && !o.mayRoute(int32(id)) {
					skipped++
				}
			}
		}
		if skipped == 0 {
			t.Errorf("VTracks %d: no stuck net was ever passed over; the array is not starved", vt)
		}
		t.Logf("VTracks %d: %d stuck nets passed over across %d moves, final G=%d D=%d", vt, skipped, moves, o.G(), o.D())
	}
}

// TestCheckCatchesDrift corrupts, one at a time, each structure the cascade
// relies on — a free bit, an unrouted-list key, the list's membership and its
// order, and the wake index — and requires Check to report it.
func TestCheckCatchesDrift(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "drift", Inputs: 5, Outputs: 4, Seq: 2, Comb: 40, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	p := arch.Default(5, 14, 6)
	p.VTracks = 1
	o, err := New(arch.MustNew(p), nl, Config{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 50; i++ {
		o.Propose(rng)
		o.Accept()
	}
	if err := o.Check(); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
	if len(o.unrouted) < 2 {
		t.Fatalf("%d unrouted nets; the array is not starved", len(o.unrouted))
	}
	routed := int32(-1)
	for id := range o.Rts {
		if o.Rts[id].DetailDone() {
			routed = int32(id)
			break
		}
	}
	for _, c := range []struct {
		name    string
		corrupt func(c *Optimizer)
		want    string
	}{
		{"flipped free bit", func(c *Optimizer) {
			// Allocating a free segment to Free leaves the ownership table
			// as it was but clears the segment's free bit.
			for tr := 0; tr < c.A.Tracks; tr++ {
				if c.F.HOwner(0, tr, 0) == fabric.Free {
					c.F.AllocH(0, tr, 0, 0, fabric.Free)
					return
				}
			}
			t.Fatal("channel 0 has no free first segment")
		}, "free tracks"},
		{"stale key", func(c *Optimizer) { c.estLen[c.unrouted[0]]++ }, "listed under length"},
		{"missing net", func(c *Optimizer) { c.unrouted = c.unrouted[1:] }, "not in the unrouted list"},
		{"routed net listed", func(c *Optimizer) { c.unrouted = append(c.unrouted, routed) }, "fully routed"},
		{"out of order", func(c *Optimizer) {
			c.unrouted[0], c.unrouted[1] = c.unrouted[1], c.unrouted[0]
		}, "out of order"},
		{"dropped watch", func(c *Optimizer) {
			// A fresh generation retires every entry of the net.
			c.watchGen++
			c.netGen[c.unrouted[0]] = c.watchGen
		}, "no live watch"},
		{"routed net watched", func(c *Optimizer) {
			c.hwatch[0] = append(c.hwatch[0], watch{0, 0, routed, c.netGen[routed]})
		}, "matches no need"},
		{"generation past the counter", func(c *Optimizer) { c.netGen[routed] = c.watchGen + 1 }, "past the counter"},
	} {
		cl := o.Clone()
		c.corrupt(cl)
		err := cl.Check()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Check = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

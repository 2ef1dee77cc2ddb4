package core

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/netgen"
)

// The paper's Figures 3 and 4 illustrate the incremental rerouting cascade:
// a placement move rips up the mover's nets, and the freed segments let
// *other*, previously stuck nets route. These tests assert exactly that
// mechanism: an accepted move whose journal shows a net transitioning from
// stuck to routed without having been ripped (i.e. not attached to the moved
// cells).

// driveUntil runs random moves (always accepted) until pred holds or the
// budget runs out; reports success.
func driveUntil(o *Optimizer, rng *rand.Rand, budget int, pred func() bool) bool {
	for i := 0; i < budget; i++ {
		if pred() {
			return true
		}
		o.Propose(rng, nil)
		o.Accept()
	}
	return pred()
}

// unrippedRecoveries counts journal entries of the last move where a net not
// attached to the moved cells went from unrouted (globally for wantGlobal,
// else detail-incomplete) to routed.
func unrippedRecoveries(o *Optimizer, wantGlobal bool) int {
	n := 0
	for i := range o.journal {
		e := &o.journal[i]
		if e.ripped {
			continue
		}
		r := &o.Rts[e.id]
		if wantGlobal {
			if !e.old.Global && r.Global {
				n++
			}
		} else {
			if !e.old.DetailDone() && r.DetailDone() {
				n++
			}
		}
	}
	return n
}

func TestFigure3IncrementalGlobalReroute(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "f3", Inputs: 5, Outputs: 4, Seq: 2, Comb: 40, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	// Scarce vertical resources so global routing is contended.
	p := arch.Default(6, 14, 20)
	p.VTracks = 1
	p.VSpan = 2
	a := arch.MustNew(p)
	o, err := New(a, nl, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	if !driveUntil(o, rng, 3000, func() bool { return o.G() > 0 }) {
		t.Skip("could not provoke global-routing contention")
	}
	// Search for a move in which a stuck net becomes globally routed without
	// being ripped: the Figure-3 cascade.
	found := false
	for i := 0; i < 5000 && !found; i++ {
		g0 := o.G()
		o.Propose(rng, nil)
		if o.G() < g0 && unrippedRecoveries(o, true) > 0 {
			found = true
			o.Accept()
			break
		}
		o.Reject()
		if o.G() == 0 {
			// Contention resolved itself; provoke again.
			if !driveUntil(o, rng, 2000, func() bool { return o.G() > 0 }) {
				break
			}
		}
	}
	if !found {
		t.Fatal("no move exhibited the incremental global rerouting cascade")
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFigure4IncrementalDetailedReroute(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "f4", Inputs: 5, Outputs: 4, Seq: 2, Comb: 40, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	// Scarce horizontal resources so detailed routing is contended.
	a := arch.MustNew(arch.Default(6, 14, 4))
	o, err := New(a, nl, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	if !driveUntil(o, rng, 3000, func() bool { return o.D() > o.G() }) {
		t.Skip("could not provoke detailed-routing contention")
	}
	found := false
	for i := 0; i < 5000 && !found; i++ {
		d0 := o.D()
		o.Propose(rng, nil)
		if o.D() < d0 && unrippedRecoveries(o, false) > 0 {
			found = true
			o.Accept()
			break
		}
		o.Reject()
		if o.D() == o.G() {
			if !driveUntil(o, rng, 2000, func() bool { return o.D() > o.G() }) {
				break
			}
		}
	}
	if !found {
		t.Fatal("no move exhibited the incremental detailed rerouting cascade")
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
}

// δG in Figure 3 is the move's contribution to the cost: verify the counter
// arithmetic against a recount across a burst of accepted moves under
// contention.
func TestCountersUnderContention(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "f3c", Inputs: 5, Outputs: 4, Seq: 2, Comb: 40, Seed: 75})
	if err != nil {
		t.Fatal(err)
	}
	p := arch.Default(6, 14, 3)
	p.VTracks = 1
	a := arch.MustNew(p)
	o, err := New(a, nl, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 300; i++ {
		o.Propose(rng, nil)
		if rng.Intn(3) == 0 {
			o.Reject()
		} else {
			o.Accept()
		}
	}
	g, d, dc := o.g, o.d, o.dc
	o.recountGD()
	if g != o.g || d != o.d || dc != o.dc {
		t.Fatalf("counters drifted under contention: G %d vs %d, D %d vs %d, dc %d vs %d",
			g, o.g, d, o.d, dc, o.dc)
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
}

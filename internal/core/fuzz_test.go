package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/netgen"
	"repro/internal/netlist"
)

var fuzzDesign struct {
	once    sync.Once
	a       *arch.Arch
	starved *arch.Arch
	nl      *netlist.Netlist
	err     error
}

// fuzzSetup returns the fuzz design with two arrays: one where most nets
// route, and a starved one (few tracks, one vertical track per column) where
// many nets stay stuck, so the skip rule for stuck nets is exercised.
func fuzzSetup() (a, starved *arch.Arch, nl *netlist.Netlist, err error) {
	fuzzDesign.once.Do(func() {
		fuzzDesign.nl, fuzzDesign.err = netgen.Generate(netgen.Params{
			Name: "fz", Inputs: 4, Outputs: 3, Seq: 2, Comb: 24, Seed: 51,
		})
		fuzzDesign.a = arch.MustNew(arch.Default(5, 11, 12))
		p := arch.Default(5, 11, 4)
		p.VTracks = 1
		fuzzDesign.starved = arch.MustNew(p)
	})
	return fuzzDesign.a, fuzzDesign.starved, fuzzDesign.nl, fuzzDesign.err
}

// FuzzCloneEquivalence: a clone fed the identical move sequence must follow
// the identical cost trajectory — the contract the parallel portfolio engine
// rests on. Any state the clone shares mutably with the original, or fails to
// copy, diverges the trajectories. Both arrays are run; on the starved one the
// router counters must agree too, and Check must pass on both copies, which
// shows the clone carries its own free sets, unrouted list and wake index (a
// clone missing one, or sharing it with the original, would attempt other
// nets or fail Check).
func FuzzCloneEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(10), uint16(60))
	f.Add(int64(9), uint8(0), uint16(120))
	f.Add(int64(42), uint8(50), uint16(200))
	f.Add(int64(-7), uint8(255), uint16(33))
	f.Fuzz(func(t *testing.T, seed int64, warm uint8, moves uint16) {
		a, starved, nl, err := fuzzSetup()
		if err != nil {
			t.Fatal(err)
		}
		cloneEquivalence(t, a, nl, seed, warm, moves)
		cloneEquivalence(t, starved, nl, seed, warm, moves)
	})
}

func cloneEquivalence(t *testing.T, a *arch.Arch, nl *netlist.Netlist, seed int64, warm uint8, moves uint16) {
	t.Helper()
	o, err := New(a, nl, Config{Seed: seed, MovesPerCell: 4, MaxTemps: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the original away from the initial state.
	wrng := rand.New(rand.NewSource(seed + 7))
	for i := 0; i < int(warm); i++ {
		o.Propose(wrng, nil)
		if wrng.Intn(4) == 0 {
			o.Reject()
		} else {
			o.Accept()
		}
	}

	c := o.Clone()
	if got, want := c.Cost(), o.Cost(); got != want {
		t.Fatalf("clone cost %v != original %v before any move", got, want)
	}
	// The incremental bounding-box cache must be deep-copied: the clone
	// serves the same boxes as the original, and both caches must agree
	// with a from-scratch recompute.
	for id := int32(0); id < int32(nl.NumNets()); id++ {
		if ob, cb := o.P.NetBox(id), c.P.NetBox(id); ob != cb {
			t.Fatalf("net %d: clone box %+v != original %+v", id, cb, ob)
		}
	}
	if err := o.P.ValidateNetBoxes(); err != nil {
		t.Fatalf("original after warm-up: %v", err)
	}
	if err := c.P.ValidateNetBoxes(); err != nil {
		t.Fatalf("clone after copy: %v", err)
	}

	n := int(moves)%300 + 1
	r1 := rand.New(rand.NewSource(seed * 31))
	r2 := rand.New(rand.NewSource(seed * 31))
	for i := 0; i < n; i++ {
		d1 := o.Propose(r1, nil)
		d2 := c.Propose(r2, nil)
		if d1 != d2 {
			t.Fatalf("move %d: deltas diverged: %v vs %v", i, d1, d2)
		}
		if r1.Intn(3) == 0 {
			o.Reject()
		} else {
			o.Accept()
		}
		if r2.Intn(3) == 0 {
			c.Reject()
		} else {
			c.Accept()
		}
		if o.Cost() != c.Cost() {
			t.Fatalf("move %d: costs diverged: %v vs %v", i, o.Cost(), c.Cost())
		}
	}
	if o.G() != c.G() || o.D() != c.D() || o.WCD() != c.WCD() {
		t.Fatalf("final state diverged: (G=%d D=%d T=%v) vs (G=%d D=%d T=%v)",
			o.G(), o.D(), o.WCD(), c.G(), c.D(), c.WCD())
	}
	if o.F.Stats != c.F.Stats {
		t.Fatalf("router counters diverged: %+v vs %+v", o.F.Stats, c.F.Stats)
	}
	if err := o.Check(); err != nil {
		t.Fatalf("original: %v", err)
	}
	if err := c.Check(); err != nil {
		t.Fatalf("clone: %v", err)
	}
}

// TestCloneIndependence: after cloning, moves on either copy must leave the
// other bit-for-bit untouched.
func TestCloneIndependence(t *testing.T) {
	a, nl := smallDesign(t)
	o, err := New(a, nl, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 60; i++ {
		o.Propose(rng, nil)
		o.Accept()
	}
	c := o.Clone()
	cCost, cWCD := c.Cost(), c.WCD()
	cLocs := flattenLocs(c)

	// Hammer the original; the clone must not move.
	for i := 0; i < 150; i++ {
		o.Propose(rng, nil)
		o.Accept()
	}
	if c.Cost() != cCost || c.WCD() != cWCD {
		t.Fatalf("mutating the original changed the clone: cost %v->%v, WCD %v->%v",
			cCost, c.Cost(), cWCD, c.WCD())
	}
	for i, v := range flattenLocs(c) {
		if v != cLocs[i] {
			t.Fatal("mutating the original changed the clone's placement")
		}
	}
	if err := c.Check(); err != nil {
		t.Fatalf("clone after original mutation: %v", err)
	}

	// And the other direction.
	oCost := o.Cost()
	oLocs := flattenLocs(o)
	for i := 0; i < 150; i++ {
		c.Propose(rng, nil)
		c.Accept()
	}
	if o.Cost() != oCost {
		t.Fatalf("mutating the clone changed the original: cost %v->%v", oCost, o.Cost())
	}
	for i, v := range flattenLocs(o) {
		if v != oLocs[i] {
			t.Fatal("mutating the clone changed the original's placement")
		}
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// Cloning inside an open move is a programming error and must panic rather
// than produce a clone with dangling journal state.
func TestCloneInsideMovePanics(t *testing.T) {
	a, nl := smallDesign(t)
	o, err := New(a, nl, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	o.Propose(rng, nil)
	defer func() {
		if recover() == nil {
			t.Error("Clone inside an open move did not panic")
		}
	}()
	o.Clone()
}

package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/droute"
	"repro/internal/netgen"
	"repro/internal/netlist"
)

func smallDesign(t *testing.T) (*arch.Arch, *netlist.Netlist) {
	t.Helper()
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	return arch.MustNew(arch.Default(5, 12, 14)), nl
}

func TestNewInitialStateConsistent(t *testing.T) {
	a, nl := smallDesign(t)
	o, err := New(a, nl, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	if o.WCD() <= 0 {
		t.Error("initial WCD not positive")
	}
}

// The load-bearing property of the whole optimizer: a rejected move leaves
// every piece of state exactly as it was, and accepted moves never break the
// cross-structure invariants.
func TestMoveUndoExactness(t *testing.T) {
	a, nl := smallDesign(t)
	o, err := New(a, nl, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		g0, d0, w0, c0 := o.G(), o.D(), o.WCD(), o.Cost()
		o.Propose(rng)
		if rng.Intn(2) == 0 {
			o.Reject()
			if o.G() != g0 || o.D() != d0 || o.WCD() != w0 || o.Cost() != c0 {
				t.Fatalf("move %d: reject did not restore (G %d->%d, D %d->%d, T %v->%v)",
					i, g0, o.G(), d0, o.D(), w0, o.WCD())
			}
		} else {
			o.Accept()
		}
		if i%50 == 49 {
			if err := o.Check(); err != nil {
				t.Fatalf("move %d: %v", i, err)
			}
		}
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
}

// Property variant across seeds, with deep-state comparison after reject.
func TestRejectRestoresDeepState(t *testing.T) {
	a, nl := smallDesign(t)
	check := func(seed int64) bool {
		o, err := New(a, nl, Config{Seed: seed})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 1))
		// Warm up with accepted moves.
		for i := 0; i < 40; i++ {
			o.Propose(rng)
			o.Accept()
		}
		routesBefore := make([]string, len(o.Rts))
		for id := range o.Rts {
			routesBefore[id] = routeKey(o, int32(id))
		}
		locBefore := append([]int32(nil), flattenLocs(o)...)
		for i := 0; i < 30; i++ {
			o.Propose(rng)
			o.Reject()
		}
		for id := range o.Rts {
			if routeKey(o, int32(id)) != routesBefore[id] {
				t.Logf("seed %d: net %d route changed after rejects", seed, id)
				return false
			}
		}
		now := flattenLocs(o)
		for i := range now {
			if now[i] != locBefore[i] {
				t.Logf("seed %d: placement changed after rejects", seed)
				return false
			}
		}
		return o.Check() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func routeKey(o *Optimizer, id int32) string {
	r := &o.Rts[id]
	key := ""
	if r.Global {
		key = "G"
	}
	if r.HasTrunk {
		key += "T"
		key += string(rune(r.TrunkCol)) + string(rune(r.TrunkTrack)) + string(rune(r.VLo)) + string(rune(r.VHi))
	}
	for i := range r.Chans {
		ca := &r.Chans[i]
		key += string(rune(ca.Ch)) + string(rune(ca.Lo)) + string(rune(ca.Hi)) + string(rune(ca.Track+1)) + string(rune(ca.SegLo+1)) + string(rune(ca.SegHi+1))
	}
	return key
}

func flattenLocs(o *Optimizer) []int32 {
	out := make([]int32, 0, 3*o.NL.NumCells())
	for id := range o.P.Loc {
		out = append(out, int32(o.P.Loc[id].Row), int32(o.P.Loc[id].Col), int32(o.P.Pm[id]))
	}
	return out
}

func TestRunReachesFullRouting(t *testing.T) {
	a, nl := smallDesign(t)
	o, err := New(a, nl, Config{Seed: 4, MovesPerCell: 6, MaxTemps: 60})
	if err != nil {
		t.Fatal(err)
	}
	res := o.Run()
	if !res.FullyRouted {
		t.Fatalf("not fully routed: G=%d D=%d", res.G, res.D)
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	if res.WCD <= 0 {
		t.Error("WCD not positive")
	}
	if len(res.Dynamics) < 3 {
		t.Errorf("dynamics trace too short: %d samples", len(res.Dynamics))
	}
	if len(res.CriticalPath) < 2 {
		t.Error("no critical path")
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	a, nl := smallDesign(t)
	run := func() (float64, int, int) {
		o, err := New(a, nl, Config{Seed: 9, MovesPerCell: 3, MaxTemps: 25})
		if err != nil {
			t.Fatal(err)
		}
		r := o.Run()
		return r.WCD, r.G, r.D
	}
	w1, g1, d1 := run()
	w2, g2, d2 := run()
	if w1 != w2 || g1 != g2 || d1 != d2 {
		t.Errorf("same seed diverged: (%v,%d,%d) vs (%v,%d,%d)", w1, g1, d1, w2, g2, d2)
	}
}

// Figure 6's qualitative shape: placement activity decays over the anneal,
// and unrouted fractions converge to zero by the end.
func TestDynamicsShape(t *testing.T) {
	a, nl := smallDesign(t)
	o, err := New(a, nl, Config{Seed: 6, MovesPerCell: 6, MaxTemps: 80})
	if err != nil {
		t.Fatal(err)
	}
	res := o.Run()
	dyn := res.Dynamics
	if len(dyn) < 5 {
		t.Fatalf("trace too short: %d", len(dyn))
	}
	early := dyn[1].CellsPerturbed
	late := dyn[len(dyn)-1].CellsPerturbed
	if early < 0.5 {
		t.Errorf("early placement activity %.2f, want vigorous (>0.5)", early)
	}
	if late >= early {
		t.Errorf("placement activity did not decay: %.2f -> %.2f", early, late)
	}
	if res.FullyRouted && dyn[len(dyn)-1].Unrouted != 0 {
		t.Errorf("final unrouted fraction %.3f with fully routed result", dyn[len(dyn)-1].Unrouted)
	}
}

func TestWirabilityOnlyMode(t *testing.T) {
	a, nl := smallDesign(t)
	o, err := New(a, nl, Config{Seed: 8, MovesPerCell: 4, MaxTemps: 40, DisableTiming: true})
	if err != nil {
		t.Fatal(err)
	}
	res := o.Run()
	if !res.FullyRouted {
		t.Fatalf("wirability mode failed to route: G=%d D=%d", res.G, res.D)
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveMisusePanics(t *testing.T) {
	a, nl := smallDesign(t)
	o, err := New(a, nl, Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Accept without move", o.Accept)
	mustPanic("Reject without move", o.Reject)
	rng := rand.New(rand.NewSource(1))
	o.Propose(rng)
	mustPanic("nested Propose", func() { o.Propose(rng) })
	o.Reject()
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
}

// The simultaneous flow only re-routes incrementally after construction, so
// the route backend shapes the initial layout the anneal starts from. The
// full run must stay deterministic per seed and worker-count invariant, and
// an unknown backend must be rejected before any work happens.
// TestNewStarvedStateConsistent runs Check right after New for every route
// backend on starved arrays, where the initial route leaves nets stuck. The
// cascade skips listed nets from the first move on, on the grounds that none
// of them can route at a move boundary; Check's unrouted-list branch asserts
// exactly that, so it must hold for each backend's initial state too.
func TestNewStarvedStateConsistent(t *testing.T) {
	prof, ok := netgen.Profile("s1")
	if !ok {
		t.Fatal("no s1 profile")
	}
	nl, err := netgen.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	for _, vt := range []int{1, 2} {
		p := arch.Default(8, 41, 14)
		p.VTracks = vt
		a := arch.MustNew(p)
		for _, backend := range []droute.Backend{"", "negotiated", "lagrange"} {
			o, err := New(a, nl, Config{Seed: 1, RouteBackend: backend})
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Check(); err != nil {
				t.Errorf("VTracks %d, backend %q: %v", vt, backend, err)
			}
			if len(o.unrouted) == 0 {
				t.Errorf("VTracks %d, backend %q: no unrouted net; the array is not starved", vt, backend)
			}
			t.Logf("VTracks %d, backend %q: %d unrouted nets", vt, backend, len(o.unrouted))
		}
	}
}

func TestRouteBackendInitialRoute(t *testing.T) {
	a, nl := smallDesign(t)
	if _, err := New(a, nl, Config{Seed: 1, RouteBackend: "pathfinder"}); err == nil {
		t.Fatal("New accepted route backend \"pathfinder\"")
	}
	for _, backend := range []string{"negotiated", "lagrange"} {
		run := func(workers int) Result {
			o, err := New(a, nl, Config{
				Seed: 4, MovesPerCell: 3, MaxTemps: 25,
				RouteBackend: droute.Backend(backend), RouteWorkers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			res := o.Run()
			if err := o.Check(); err != nil {
				t.Fatalf("%s: %v", backend, err)
			}
			return res
		}
		ref := run(1)
		if ref.RouteFailed < 0 {
			t.Errorf("%s: negative RouteFailed %d", backend, ref.RouteFailed)
		}
		for _, workers := range []int{4, 16} {
			r := run(workers)
			if r.WCD != ref.WCD || r.G != ref.G || r.D != ref.D || r.RouteFailed != ref.RouteFailed {
				t.Errorf("%s workers=%d diverged: (%v,%d,%d) vs (%v,%d,%d)",
					backend, workers, r.WCD, r.G, r.D, ref.WCD, ref.G, ref.D)
			}
		}
	}
}

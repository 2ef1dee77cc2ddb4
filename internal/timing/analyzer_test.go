package timing

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netgen"
	"repro/internal/netlist"
)

// figure5Netlist mirrors the paper's Figure 5 structure: sources feed a small
// cone; moving cell B perturbs the nets at B's boundary and the change
// propagates level by level to the boundaries.
//
//	pi1 -> A -> C -> D -> po1
//	pi2 -> B -/   B -> I -> po2
func figure5Netlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("fig5")
	b.Input("pi1", "n1")
	b.Input("pi2", "n2")
	b.Comb("A", 1000, "na", "n1")
	b.Comb("B", 1000, "nb", "n2")
	b.Comb("C", 1000, "nc", "na", "nb")
	b.Comb("D", 1000, "nd", "nc")
	b.Comb("I", 1000, "ni", "nb")
	b.Output("po1", "nd")
	b.Output("po2", "ni")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestAnalyzerLogicDepthOnly(t *testing.T) {
	nl := figure5Netlist(t)
	an, err := NewAnalyzer(nl)
	if err != nil {
		t.Fatal(err)
	}
	// Zero net delays: WCD = deepest chain of cell delays = A/B+C+D = 3000.
	if an.WCD() != 3000 {
		t.Errorf("WCD = %v, want 3000", an.WCD())
	}
	if an.Arrival(nl.CellID("B")) != 1000 {
		t.Errorf("B arrival = %v, want 1000", an.Arrival(nl.CellID("B")))
	}
}

// TestFigure5IncrementalPropagation reproduces the paper's Figure 5: after
// perturbing the nets around cell B, only B's downstream cone changes, the
// frontier respects levels, and the result matches a full recomputation.
func TestFigure5IncrementalPropagation(t *testing.T) {
	nl := figure5Netlist(t)
	an, err := NewAnalyzer(nl)
	if err != nil {
		t.Fatal(err)
	}
	arrA := an.Arrival(nl.CellID("A"))

	an.Begin()
	// Nets touching B get rerouted: n2 (input), nb (output).
	an.SetNetDelays(nl.NetID("n2"), []float64{500})
	an.SetNetDelays(nl.NetID("nb"), []float64{200, 300}) // sinks C, I (order per builder)
	wcd := an.Propagate()
	an.Commit()

	if got := an.Arrival(nl.CellID("A")); got != arrA {
		t.Errorf("A (outside the affected cone) changed: %v -> %v", arrA, got)
	}
	// B = 500 + 1000 = 1500. C = max(A+0, B+delay(nb->C)) + 1000.
	wantB := 1500.0
	if got := an.Arrival(nl.CellID("B")); got != wantB {
		t.Errorf("B arrival = %v, want %v", got, wantB)
	}
	nbToC := 200.0
	wantC := wantB + nbToC + 1000
	if got := an.Arrival(nl.CellID("C")); got != wantC {
		t.Errorf("C arrival = %v, want %v", got, wantC)
	}
	wantWCD := wantC + 1000 // D then po1
	if wcd != wantWCD {
		t.Errorf("WCD = %v, want %v", wcd, wantWCD)
	}
	// Cross-check against full recomputation.
	before := append([]float64(nil), analyzerArrivals(an, nl)...)
	an.Full()
	after := analyzerArrivals(an, nl)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("incremental diverged from full at cell %d: %v vs %v", i, before[i], after[i])
		}
	}
}

func analyzerArrivals(an *Analyzer, nl *netlist.Netlist) []float64 {
	out := make([]float64, nl.NumCells())
	for i := range out {
		out[i] = an.Arrival(int32(i))
	}
	return out
}

func TestRevertRestoresExactly(t *testing.T) {
	nl := figure5Netlist(t)
	an, err := NewAnalyzer(nl)
	if err != nil {
		t.Fatal(err)
	}
	an.Begin()
	an.SetNetDelays(nl.NetID("n1"), []float64{250})
	an.Propagate()
	an.Commit()

	before := analyzerArrivals(an, nl)
	wcdBefore := an.WCD()
	delayBefore := append([]float64(nil), an.NetDelay(nl.NetID("n1"))...)

	an.Begin()
	an.SetNetDelays(nl.NetID("n1"), []float64{900})
	an.SetNetDelays(nl.NetID("nb"), []float64{100, 700})
	an.Propagate()
	an.Revert()

	after := analyzerArrivals(an, nl)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("cell %d arrival not restored: %v vs %v", i, before[i], after[i])
		}
	}
	if an.WCD() != wcdBefore {
		t.Errorf("WCD not restored: %v vs %v", an.WCD(), wcdBefore)
	}
	for i, v := range an.NetDelay(nl.NetID("n1")) {
		if v != delayBefore[i] {
			t.Errorf("net delay not restored")
		}
	}
}

// Property: on realistic designs, random bursts of net-delay changes with
// mixed commit/revert always leave the incremental analyzer bit-identical to
// a from-scratch recomputation. Midway through each sequence the analyzer is
// cloned and later moves go to the original or the clone at random: neither
// may disturb the other.
func TestIncrementalMatchesFullProperty(t *testing.T) {
	big, ok := netgen.Profile("big529")
	if !ok {
		t.Fatal("no big529 profile")
	}
	for _, p := range []netgen.Params{
		{Name: "p", Inputs: 6, Outputs: 5, Seq: 4, Comb: 60, Seed: 21},
		big, // more levels and higher fanout
	} {
		nl, err := netgen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(p.Name, func(t *testing.T) {
			check := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				orig, err := newTracked(nl)
				if err != nil {
					t.Log(err)
					return false
				}
				var clone *tracked
				for move := 0; move < 25; move++ {
					if move == 12 {
						clone = &tracked{an: orig.an.Clone(), ref: orig.ref.Clone()}
					}
					x := orig
					if clone != nil && rng.Intn(2) == 0 {
						x = clone
					}
					if err := x.move(rng, nl); err != nil {
						t.Logf("seed %d move %d (clone %v): %v", seed, move, x == clone, err)
						return false
					}
					for _, x := range []*tracked{orig, clone} {
						if x == nil {
							continue
						}
						if err := x.matchesFull(nl); err != nil {
							t.Logf("seed %d move %d (clone %v): %v", seed, move, x == clone, err)
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// tracked pairs an analyzer under test with a reference that receives only
// its committed delay changes and is recomputed from scratch.
type tracked struct{ an, ref *Analyzer }

func newTracked(nl *netlist.Netlist) (*tracked, error) {
	an, err := NewAnalyzer(nl)
	if err != nil {
		return nil, err
	}
	ref, err := NewAnalyzer(nl)
	if err != nil {
		return nil, err
	}
	return &tracked{an: an, ref: ref}, nil
}

// move applies one random burst of net-delay changes, then commits it (and
// mirrors it into the reference) or reverts it. Half the delays come from
// {0, 250, 500} ps, so fanin arrivals tie, as the engine's equal estimates
// and zero start-up delays make them do. Propagate must count as relaxed
// exactly the cells whose arrival changed.
func (x *tracked) move(rng *rand.Rand, nl *netlist.Netlist) error {
	x.an.Begin()
	touched := map[int32][]float64{}
	for k := 0; k < 1+rng.Intn(4); k++ {
		id := int32(rng.Intn(nl.NumNets()))
		d := make([]float64, len(nl.Nets[id].Sinks))
		for i := range d {
			if rng.Intn(2) == 0 {
				d[i] = float64(250 * rng.Intn(3))
			} else {
				d[i] = rng.Float64() * 2000
			}
		}
		x.an.SetNetDelays(id, d)
		touched[id] = d
	}
	before := append([]float64(nil), x.an.arr...)
	relaxed := x.an.Stats().STACellsRelaxed
	x.an.Propagate()
	changed := 0
	for c, v := range x.an.arr {
		if v != before[c] {
			changed++
		}
	}
	if got := x.an.Stats().STACellsRelaxed - relaxed; got != int64(changed) {
		return fmt.Errorf("%d cells relaxed, %d arrivals changed", got, changed)
	}
	if rng.Intn(3) == 0 {
		x.an.Revert()
		return nil
	}
	x.an.Commit()
	x.ref.Begin()
	for id, d := range touched {
		x.ref.SetNetDelays(id, d)
	}
	x.ref.Propagate()
	x.ref.Commit()
	return nil
}

// matchesFull recomputes the reference from scratch and requires the
// analyzer's WCD, arrivals and net delays to equal it bit for bit.
func (x *tracked) matchesFull(nl *netlist.Netlist) error {
	x.ref.Full()
	if x.an.WCD() != x.ref.WCD() {
		return fmt.Errorf("WCD %v vs %v", x.an.WCD(), x.ref.WCD())
	}
	for c := int32(0); c < int32(nl.NumCells()); c++ {
		if x.an.Arrival(c) != x.ref.Arrival(c) {
			return fmt.Errorf("cell %d arr %v vs %v", c, x.an.Arrival(c), x.ref.Arrival(c))
		}
	}
	for id := int32(0); id < int32(nl.NumNets()); id++ {
		got, want := x.an.NetDelay(id), x.ref.NetDelay(id)
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("net %d sink %d delay %v vs %v", id, i, got[i], want[i])
			}
		}
	}
	return nil
}

func TestCriticalPathEndsAtBoundaries(t *testing.T) {
	nl := figure5Netlist(t)
	an, err := NewAnalyzer(nl)
	if err != nil {
		t.Fatal(err)
	}
	an.Begin()
	an.SetNetDelays(nl.NetID("n2"), []float64{800})
	an.Propagate()
	an.Commit()
	path := an.CriticalPath()
	if len(path) < 2 {
		t.Fatalf("path too short: %v", path)
	}
	if !nl.IsSource(path[0]) {
		t.Errorf("path starts at non-source %s", nl.Cells[path[0]].Name)
	}
	last := nl.Cells[path[len(path)-1]]
	if last.Type != netlist.Output && last.Type != netlist.Seq {
		t.Errorf("path ends at %s (%v), want boundary", last.Name, last.Type)
	}
	// With n2 slowed, the critical path must pass through B.
	foundB := false
	for _, c := range path {
		if nl.Cells[c].Name == "B" {
			foundB = true
		}
	}
	if !foundB {
		t.Errorf("critical path %v misses B", path)
	}
}

func TestJournalMisusePanics(t *testing.T) {
	nl := figure5Netlist(t)
	an, _ := NewAnalyzer(nl)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("SetNetDelays outside move", func() { an.SetNetDelays(0, []float64{1}) })
	mustPanic("Propagate outside move", func() { an.Propagate() })
	mustPanic("Commit outside move", func() { an.Commit() })
	mustPanic("Revert outside move", func() { an.Revert() })
	an.Begin()
	mustPanic("nested Begin", func() { an.Begin() })
	mustPanic("wrong arity", func() { an.SetNetDelays(nl.NetID("nb"), []float64{1}) })
	an.Commit()
}

func TestSeqBreaksTiming(t *testing.T) {
	// pi -> g1 -> ff -> g2 -> po: WCD is max over the two register-bounded
	// segments, not their sum.
	b := netlist.NewBuilder("seqsplit")
	b.Input("pi", "a")
	b.Comb("g1", 2000, "x", "a")
	b.Seq("ff", 500, "q", "x")
	b.Comb("g2", 1000, "y", "q")
	b.Output("po", "y")
	nl := b.MustBuild()
	an, err := NewAnalyzer(nl)
	if err != nil {
		t.Fatal(err)
	}
	// Segment 1: pi->g1->ff input = 2000. Segment 2: ff(500)->g2(1000)->po = 1500.
	if an.WCD() != 2000 {
		t.Errorf("WCD = %v, want 2000 (paths split at the flop)", an.WCD())
	}
}

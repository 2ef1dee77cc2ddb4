package techmap

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
)

// wideGate builds pi0..pi{n-1} -> one n-input gate -> po.
func wideGate(t *testing.T, n int) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("wide")
	ins := make([]string, n)
	for i := range ins {
		ins[i] = fmt.Sprintf("a%d", i)
		b.Input(fmt.Sprintf("pi%d", i), ins[i])
	}
	b.Comb("g", 3000, "y", ins...)
	b.Output("po", "y")
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func maxFanin(nl *netlist.Netlist) int {
	m := 0
	for i := range nl.Cells {
		if nl.Cells[i].Type == netlist.Comb && len(nl.Cells[i].In) > m {
			m = len(nl.Cells[i].In)
		}
	}
	return m
}

func TestDecomposeWideGate(t *testing.T) {
	for _, n := range []int{5, 9, 16, 33} {
		nl := wideGate(t, n)
		out, st, err := Map(nl, 4)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := maxFanin(out); got > 4 {
			t.Errorf("n=%d: max fanin %d after mapping", n, got)
		}
		if err := out.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		if st.Decomposed != 1 {
			t.Errorf("n=%d: decomposed = %d", n, st.Decomposed)
		}
		// Balanced tree over n leaves with arity 4: depth is ceil(log4(n)).
		lv, _ := out.Levels()
		depth := 0
		for _, l := range lv {
			if int(l) > depth {
				depth = int(l)
			}
		}
		wantDepth := 1 // pads add one level
		for m := n; m > 4; m = (m + 3) / 4 {
			wantDepth++
		}
		wantDepth++ // root gate level
		if depth > wantDepth {
			t.Errorf("n=%d: depth %d, want <= %d (balanced tree)", n, depth, wantDepth)
		}
	}
}

func TestLegalNetlistUntouched(t *testing.T) {
	b := netlist.NewBuilder("ok")
	b.Input("pi", "a")
	b.Comb("g1", 3000, "x", "a")
	b.Comb("g2", 3000, "y", "x", "a")
	b.Output("po", "y")
	b.Output("px", "x") // a second fanout: g1 cannot be absorbed into g2
	nl := b.MustBuild()
	out, st, err := Map(nl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Decomposed != 0 || st.TreeCellsAdded != 0 || st.Absorbed != 0 {
		t.Errorf("legal netlist modified: %+v", st)
	}
	if out.NumCells() != nl.NumCells() {
		t.Errorf("cells %d -> %d", nl.NumCells(), out.NumCells())
	}
}

func TestAbsorbChain(t *testing.T) {
	// g1(a,b) -> g2(g1,c): single fanout, merged support {a,b,c} fits K=4.
	b := netlist.NewBuilder("chain")
	b.Input("pa", "a")
	b.Input("pb", "b")
	b.Input("pc", "c")
	b.Comb("g1", 3000, "m", "a", "b")
	b.Comb("g2", 3000, "y", "m", "c")
	b.Output("po", "y")
	nl := b.MustBuild()
	out, st, err := Map(nl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Absorbed != 1 {
		t.Fatalf("absorbed = %d, want 1", st.Absorbed)
	}
	g2 := out.CellID("g2")
	if g2 < 0 {
		t.Fatal("g2 missing")
	}
	if len(out.Cells[g2].In) != 3 {
		t.Errorf("g2 fanin %d, want 3 (a,b,c)", len(out.Cells[g2].In))
	}
	if out.CellID("g1") >= 0 {
		t.Error("g1 should have been absorbed")
	}
	if st.DepthOut >= st.DepthIn {
		t.Errorf("absorption did not reduce depth: %d -> %d", st.DepthIn, st.DepthOut)
	}
}

func TestAbsorbRespectsFanout(t *testing.T) {
	// g1 feeds two cells: must not be absorbed.
	b := netlist.NewBuilder("fan")
	b.Input("pa", "a")
	b.Comb("g1", 3000, "m", "a")
	b.Comb("g2", 3000, "y", "m")
	b.Comb("g3", 3000, "z", "m")
	b.Output("po1", "y")
	b.Output("po2", "z")
	nl := b.MustBuild()
	out, _, err := Map(nl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.CellID("g1") < 0 {
		t.Error("multi-fanout cell absorbed")
	}
}

func TestAbsorbRespectsK(t *testing.T) {
	// Merged support would be 5 > K=4: no absorption.
	b := netlist.NewBuilder("big")
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		b.Input("p"+n, n)
	}
	b.Comb("g1", 3000, "m", "a", "b", "c")
	b.Comb("g2", 3000, "y", "m", "d", "e")
	b.Output("po", "y")
	nl := b.MustBuild()
	out, st, err := Map(nl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Absorbed != 0 {
		t.Errorf("absorbed = %d, want 0", st.Absorbed)
	}
	if out.CellID("g1") < 0 {
		t.Error("g1 should survive")
	}
}

func TestSeqAndPadsNeverTouched(t *testing.T) {
	b := netlist.NewBuilder("seqs")
	b.Input("pi", "a")
	b.Comb("g1", 3000, "m", "a")
	b.Seq("ff", 3500, "q", "m")
	b.Comb("g2", 3000, "y", "q")
	b.Output("po", "y")
	nl := b.MustBuild()
	out, _, err := Map(nl, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pi", "ff", "po"} {
		if out.CellID(name) < 0 {
			t.Errorf("%s disappeared", name)
		}
	}
	// g1 must not be absorbed into the flop.
	if out.CellID("g1") < 0 {
		t.Error("comb cell absorbed into a sequential cell")
	}
}

// Property: mapping always yields a valid netlist with fanin <= K, preserves
// pads and sequential cells, and is idempotent.
func TestMapProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := netlist.NewBuilder("prop")
		nIn := 2 + rng.Intn(6)
		var pool []string
		for i := 0; i < nIn; i++ {
			n := fmt.Sprintf("i%d", i)
			b.Input("pi"+n, n)
			pool = append(pool, n)
		}
		nG := 1 + rng.Intn(25)
		for g := 0; g < nG; g++ {
			k := 1 + rng.Intn(9) // deliberately beyond K
			seen := map[string]bool{}
			var ins []string
			for j := 0; j < k; j++ {
				c := pool[rng.Intn(len(pool))]
				if !seen[c] {
					seen[c] = true
					ins = append(ins, c)
				}
			}
			out := fmt.Sprintf("n%d", g)
			b.Comb(fmt.Sprintf("g%d", g), 3000, out, ins...)
			pool = append(pool, out)
		}
		b.Output("po", pool[len(pool)-1])
		nl, err := b.Build()
		if err != nil {
			return false
		}
		k := 2 + int(seed%3+3)%3 // K in {2,3,4}
		out, _, err := Map(nl, k)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if maxFanin(out) > k {
			t.Logf("seed %d: fanin %d > K %d", seed, maxFanin(out), k)
			return false
		}
		if err := out.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Idempotent.
		again, st2, err := Map(out, k)
		if err != nil {
			return false
		}
		return st2.Decomposed == 0 && st2.Absorbed == 0 && again.NumCells() == out.NumCells()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

package layout

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/netlist"
)

func testSetup(t *testing.T) (*arch.Arch, *netlist.Netlist) {
	t.Helper()
	a := arch.MustNew(arch.Default(4, 8, 6))
	b := netlist.NewBuilder("t")
	b.Input("pi", "a")
	b.Comb("g1", 3000, "x", "a")
	b.Comb("g2", 3000, "y", "x", "a")
	b.Seq("ff", 3500, "q", "y")
	b.Output("po", "q")
	return a, b.MustBuild()
}

func TestNewRandomLegal(t *testing.T) {
	a, nl := testSetup(t)
	for seed := int64(0); seed < 20; seed++ {
		p, err := NewRandom(a, nl, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("NewRandom: %v", err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestNewPaletteLinear builds a placement for a netlist with one cell of
// 4,095 inputs. The pinmap palette must hold only the input counts that
// occur: one for every count up to the widest would take about 34 MB and 16k
// allocations here, growing as the square of the width. Every cell's Pinmap
// must still be its input count's palette entry.
func TestNewPaletteLinear(t *testing.T) {
	const width = 4095
	ins := make([]string, width)
	for i := range ins {
		ins[i] = "a"
	}
	b := netlist.NewBuilder("wide")
	b.Input("pi", "a")
	b.Comb("g", 3000, "x", ins...)
	b.Output("po", "x")
	nl := b.MustBuild()
	a := arch.MustNew(arch.Default(2, 4, 6))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := New(a, nl)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 256<<10 {
		t.Errorf("New allocated %d bytes for a %d-input cell, want at most %d", n, width, 256<<10)
	}
	if n := after.Mallocs - before.Mallocs; n > 100 {
		t.Errorf("New made %d allocations for a %d-input cell, want at most 100", n, width)
	}
	for id := range nl.Cells {
		for v := 0; v < 2*arch.NumPinmaps; v++ {
			p.Pm[id] = uint8(v)
			if got, want := p.Pinmap(int32(id)), arch.PinmapFor(len(nl.Cells[id].In), v); !slices.Equal(got, want) {
				t.Fatalf("cell %d variant %d: pinmap %v, want %v", id, v, got, want)
			}
		}
	}
}

func TestNewRandomOverCapacity(t *testing.T) {
	a := arch.MustNew(arch.Default(1, 2, 2)) // 2 slots
	_, nl := testSetup(t)                    // 5 cells
	if _, err := NewRandom(a, nl, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected capacity error")
	}
}

func TestSwap(t *testing.T) {
	a, nl := testSetup(t)
	p, _ := NewRandom(a, nl, rand.New(rand.NewSource(7)))
	l1 := p.Loc[0]
	// Find an empty slot.
	var empty Loc
	found := false
	for r := 0; r < a.Rows && !found; r++ {
		for c := 0; c < a.Cols && !found; c++ {
			if p.Slot[r][c] < 0 {
				empty = Loc{r, c}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no empty slot")
	}
	p.Swap(l1, empty)
	if p.Loc[0] != empty {
		t.Error("cell did not move to empty slot")
	}
	if p.Slot[l1.Row][l1.Col] != -1 {
		t.Error("origin slot not vacated")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Swap two occupied slots.
	l0, l1b := p.Loc[0], p.Loc[1]
	p.Swap(l0, l1b)
	if p.Loc[0] != l1b || p.Loc[1] != l0 {
		t.Error("occupied swap broken")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPinPosRespectsPinmap(t *testing.T) {
	a, nl := testSetup(t)
	p, _ := NewRandom(a, nl, rand.New(rand.NewSource(3)))
	g2 := nl.CellID("g2")
	row := p.Loc[g2].Row
	// Variant 2: output top, all inputs bottom.
	p.SetPinmap(g2, 2)
	ch, col := p.PinPos(netlist.PinRef{Cell: g2, Pin: 0})
	if ch != row+1 || col != p.Loc[g2].Col {
		t.Errorf("output pin at (%d,%d), want (%d,%d)", ch, col, row+1, p.Loc[g2].Col)
	}
	ch, _ = p.PinPos(netlist.PinRef{Cell: g2, Pin: 1})
	if ch != row {
		t.Errorf("input pin channel %d, want %d", ch, row)
	}
	// Variant 3: output bottom, all inputs top.
	p.SetPinmap(g2, 3)
	ch, _ = p.PinPos(netlist.PinRef{Cell: g2, Pin: 0})
	if ch != row {
		t.Errorf("variant 3 output channel %d, want %d", ch, row)
	}
}

func TestNetBoxAndEstLength(t *testing.T) {
	a, nl := testSetup(t)
	p, _ := NewRandom(a, nl, rand.New(rand.NewSource(3)))
	// Pin positions: manually place the two cells on net "a" far apart.
	pi := nl.CellID("pi")
	g1 := nl.CellID("g1")
	g2 := nl.CellID("g2")
	// Clear the board to known state by swapping cells into chosen slots.
	p.Swap(p.Loc[pi], Loc{0, 0})
	p.Swap(p.Loc[g1], Loc{3, 7})
	p.Swap(p.Loc[g2], Loc{1, 4})
	for _, c := range []int32{pi, g1, g2} {
		p.SetPinmap(c, 2) // output top, inputs bottom
	}
	aNet := nl.NetID("a")
	box := p.NetBox(aNet)
	// pi output: row 0 top -> channel 1, col 0. g1 in: row 3 bottom -> channel 3, col 7.
	// g2 in (pin 2): row 1 bottom -> channel 1, col 4.
	if box.ChLo != 1 || box.ChHi != 3 || box.ColLo != 0 || box.ColHi != 7 {
		t.Errorf("NetBox = %+v", box)
	}
	want := float64(7) + 2*float64(2)
	if got := p.EstLength(aNet); got != want {
		t.Errorf("EstLength = %v, want %v", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	a, nl := testSetup(t)
	p, _ := NewRandom(a, nl, rand.New(rand.NewSource(5)))
	q := p.Clone()
	l0 := p.Loc[0]
	var other Loc
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			if (Loc{r, c}) != l0 {
				other = Loc{r, c}
			}
		}
	}
	p.Swap(l0, other)
	p.SetPinmap(0, 3)
	if q.Loc[0] != l0 {
		t.Error("clone's Loc mutated by original's Swap")
	}
	if q.Pm[0] == 3 && p.Pm[0] == 3 && &q.Pm[0] == &p.Pm[0] {
		t.Error("clone shares Pm storage")
	}
	if err := q.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	a, nl := testSetup(t)
	p, _ := NewRandom(a, nl, rand.New(rand.NewSource(9)))
	p.Loc[0] = Loc{0, 0}
	p.Loc[1] = Loc{0, 0} // two cells claim one slot -> slot table disagrees
	if err := p.Validate(); err == nil {
		t.Error("corruption not detected")
	}
}

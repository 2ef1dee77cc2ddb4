package groute

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/netgen"
	"repro/internal/netlist"
)

// chainNetlist builds pi -> g0 -> g1 -> ... -> g{n-1} -> po.
func chainNetlist(n int) *netlist.Netlist {
	b := netlist.NewBuilder("chain")
	b.Input("pi", "n0")
	for i := 0; i < n; i++ {
		in := "n" + itoa(i)
		b.Comb("g"+itoa(i), 3000, "n"+itoa(i+1), in)
	}
	b.Output("po", "n"+itoa(n))
	return b.MustBuild()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

func place(t *testing.T, p *layout.Placement, cell string, row, col int) {
	t.Helper()
	id := p.NL.CellID(cell)
	if id < 0 {
		t.Fatalf("no cell %q", cell)
	}
	p.Swap(p.Loc[id], layout.Loc{Row: row, Col: col})
}

func setup(t *testing.T, rows, cols int, nl *netlist.Netlist, seed int64) (*arch.Arch, *fabric.Fabric, *layout.Placement) {
	t.Helper()
	a := arch.MustNew(arch.Default(rows, cols, 8))
	p, err := layout.NewRandom(a, nl, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return a, fabric.New(a), p
}

func TestSingleChannelNet(t *testing.T) {
	nl := chainNetlist(2)
	_, f, p := setup(t, 4, 10, nl, 1)
	// Put g0 and g1 in the same row with pinmaps that place the connecting
	// net's pins on the same channel.
	place(t, p, "g0", 1, 2)
	place(t, p, "g1", 1, 7)
	g0 := nl.CellID("g0")
	g1 := nl.CellID("g1")
	p.SetPinmap(g0, 2) // output top -> channel 2
	p.SetPinmap(g1, 3) // inputs top -> channel 2
	n1 := nl.NetID("n1")
	var r fabric.NetRoute
	if !Route(f, p, n1, &r) {
		t.Fatal("single-channel net failed to route globally")
	}
	if r.HasTrunk {
		t.Error("single-channel net should not hold vertical resources")
	}
	if len(r.Chans) != 1 || r.Chans[0].Ch != 2 || r.Chans[0].Lo != 2 || r.Chans[0].Hi != 7 {
		t.Errorf("bad channel need: %+v", r.Chans)
	}
	if f.UsedV() != 0 {
		t.Error("vertical resources leaked")
	}
}

func TestMultiChannelTrunkNearCenter(t *testing.T) {
	nl := chainNetlist(2)
	_, f, p := setup(t, 4, 10, nl, 2)
	place(t, p, "g0", 0, 2)
	place(t, p, "g1", 3, 8)
	g0 := nl.CellID("g0")
	g1 := nl.CellID("g1")
	p.SetPinmap(g0, 3) // output bottom -> channel 0
	p.SetPinmap(g1, 3) // inputs top -> channel 4
	n1 := nl.NetID("n1")
	var r fabric.NetRoute
	if !Route(f, p, n1, &r) {
		t.Fatal("route failed")
	}
	if !r.HasTrunk {
		t.Fatal("expected trunk")
	}
	if r.TrunkCol != (2+8)/2 {
		t.Errorf("trunk at column %d, want bbox center 5", r.TrunkCol)
	}
	if got := len(r.Chans); got != 2 {
		t.Fatalf("channel needs = %d, want 2", got)
	}
	// Channel intervals extend to include the trunk column.
	if r.Chans[0].Ch != 0 || r.Chans[0].Lo != 2 || r.Chans[0].Hi != 5 {
		t.Errorf("channel 0 need %+v", r.Chans[0])
	}
	if r.Chans[1].Ch != 4 || r.Chans[1].Lo != 5 || r.Chans[1].Hi != 8 {
		t.Errorf("channel 4 need %+v", r.Chans[1])
	}
	// Vertical run must cover channels 0..4.
	vl, vh := f.A.VSegRange(0, 4)
	if r.VLo != vl || r.VHi != vh {
		t.Errorf("vertical run [%d,%d], want [%d,%d]", r.VLo, r.VHi, vl, vh)
	}
	routes := make([]fabric.NetRoute, nl.NumNets())
	routes[n1] = r
	if err := f.CheckConsistent(routes); err != nil {
		t.Error(err)
	}
}

func TestNoSinkNetTrivial(t *testing.T) {
	b := netlist.NewBuilder("dangling")
	b.Input("pi", "a")
	b.Comb("g", 1000, "unused", "a")
	b.Output("po", "a")
	nl := b.MustBuild()
	_, f, p := setup(t, 2, 6, nl, 3)
	var r fabric.NetRoute
	if !Route(f, p, nl.NetID("unused"), &r) {
		t.Fatal("sink-less net should route trivially")
	}
	if len(r.Chans) != 0 || r.HasTrunk {
		t.Error("sink-less net should hold no resources")
	}
}

func TestVerticalExhaustion(t *testing.T) {
	nl := chainNetlist(2)
	a, f, p := setup(t, 4, 10, nl, 4)
	// Fill every vertical segment.
	for c := 0; c < a.Cols; c++ {
		for vt := 0; vt < a.VTracks; vt++ {
			f.AllocV(c, vt, 0, a.NVSegs-1, 999)
		}
	}
	place(t, p, "g0", 0, 2)
	place(t, p, "g1", 3, 8)
	p.SetPinmap(nl.CellID("g0"), 3)
	p.SetPinmap(nl.CellID("g1"), 3)
	var r fabric.NetRoute
	if Route(f, p, nl.NetID("n1"), &r) {
		t.Fatal("route should fail with no vertical resources")
	}
	if r.Global || r.HasTrunk || len(r.Chans) != 0 {
		t.Error("failed route must leave descriptor reset")
	}
}

func TestRipUpRestores(t *testing.T) {
	nl := chainNetlist(2)
	_, f, p := setup(t, 4, 10, nl, 5)
	place(t, p, "g0", 0, 2)
	place(t, p, "g1", 3, 8)
	p.SetPinmap(nl.CellID("g0"), 3)
	p.SetPinmap(nl.CellID("g1"), 3)
	var r fabric.NetRoute
	id := nl.NetID("n1")
	if !Route(f, p, id, &r) {
		t.Fatal("route failed")
	}
	RipUp(f, id, &r)
	if f.UsedV() != 0 || f.UsedH() != 0 {
		t.Error("RipUp leaked resources")
	}
	if r.Global {
		t.Error("RipUp did not reset descriptor")
	}
}

func TestRouteAllChain(t *testing.T) {
	nl := chainNetlist(20)
	_, f, p := setup(t, 6, 12, nl, 6)
	routes := make([]fabric.NetRoute, nl.NumNets())
	failed := RouteAll(f, p, routes)
	if len(failed) != 0 {
		t.Fatalf("%d nets failed global routing on an empty fabric", len(failed))
	}
	if err := f.CheckConsistent(routes); err != nil {
		t.Error(err)
	}
}

// Property: on random placements, Route/RipUp cycles keep the fabric exactly
// consistent and leak-free.
func TestRouteRipupProperty(t *testing.T) {
	nl := chainNetlist(15)
	check := func(seed int64) bool {
		a := arch.MustNew(arch.Default(5, 14, 6))
		rng := rand.New(rand.NewSource(seed))
		p, err := layout.NewRandom(a, nl, rng)
		if err != nil {
			return false
		}
		f := fabric.New(a)
		routes := make([]fabric.NetRoute, nl.NumNets())
		routed := map[int32]bool{}
		for step := 0; step < 120; step++ {
			id := int32(rng.Intn(nl.NumNets()))
			if routed[id] {
				RipUp(f, id, &routes[id])
				delete(routed, id)
			} else {
				if Route(f, p, id, &routes[id]) {
					routed[id] = true
				}
			}
		}
		if err := f.CheckConsistent(routes); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for id := range routed {
			RipUp(f, id, &routes[id])
		}
		return f.UsedH() == 0 && f.UsedV() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// columnScan is the global router's trunk choice as an exhaustive scan:
// columns by increasing distance from center, the left one first at equal
// distance, vtracks in ascending order within a column, and the first
// (column, vtrack) whose vertical segments [vLo, vHi] are free wins.
func columnScan(f *fabric.Fabric, vLo, vHi, center int) (col, vt int, ok bool) {
	a := f.A
	for d := 0; d < a.Cols; d++ {
		for _, col := range [2]int{center - d, center + d} {
			if col < 0 || col >= a.Cols {
				continue
			}
			for vt := 0; vt < a.VTracks; vt++ {
				if f.VRangeFree(col, vt, vLo, vHi) {
					return col, vt, true
				}
			}
		}
	}
	return 0, 0, false
}

// Route reads only the (column, vtrack) pairs in the fabric's free set; on
// random vertical occupancy, with up to 360 pairs, it must pick exactly the
// trunk the exhaustive column scan picks.
func TestRouteMatchesColumnScan(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "scan", Inputs: 5, Outputs: 4, Seq: 2, Comb: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := arch.Default(3+rng.Intn(6), 17+rng.Intn(44), 1+rng.Intn(200))
		p.VTracks = 1 + rng.Intn(6)
		p.VSpan = 1 + rng.Intn(3)
		a := arch.MustNew(p)
		pl, err := layout.NewRandom(a, nl, rng)
		if err != nil {
			t.Fatal(err)
		}
		f := fabric.New(a)
		density := rng.Float64()
		for col := 0; col < a.Cols; col++ {
			for vt := 0; vt < a.VTracks; vt++ {
				for s := 0; s < a.NVSegs; s++ {
					if rng.Float64() < density {
						f.AllocV(col, vt, s, s, 9999)
					}
				}
			}
		}
		// Routed nets keep their trunks, so the occupancy evolves as nets
		// are routed one after another.
		routes := make([]fabric.NetRoute, nl.NumNets())
		for id := int32(0); id < int32(nl.NumNets()); id++ {
			box := pl.NetBox(id)
			if len(nl.Nets[id].Sinks) == 0 || box.ChLo == box.ChHi {
				continue
			}
			vLo, vHi := a.VSegRange(box.ChLo, box.ChHi)
			col, vt, ok := columnScan(f, vLo, vHi, (box.ColLo+box.ColHi)/2)
			r := &routes[id]
			if got := Route(f, pl, id, r); got != ok {
				t.Fatalf("seed %d net %d: Route = %v, column scan found a run: %v", seed, id, got, ok)
			}
			if ok && (r.TrunkCol != col || r.TrunkTrack != vt) {
				t.Fatalf("seed %d net %d: trunk (%d, %d), column scan (%d, %d)", seed, id, r.TrunkCol, r.TrunkTrack, col, vt)
			}
			compared++
		}
	}
	if compared < 500 {
		t.Fatalf("only %d multi-channel routes compared", compared)
	}
}

package timing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/droute"
	"repro/internal/fabric"
	"repro/internal/groute"
	"repro/internal/layout"
	"repro/internal/netgen"
	"repro/internal/netlist"
)

// pairNetlist: one source pad driving one comb sink through net "n".
func pairNetlist() *netlist.Netlist {
	b := netlist.NewBuilder("pair")
	b.Input("d", "n")
	b.Comb("s", 3000, "y", "n")
	b.Output("po", "y")
	return b.MustBuild()
}

func flatArch(segPattern []int, tracks int) *arch.Arch {
	cols := 0
	for _, l := range segPattern {
		cols += l
	}
	p := arch.Default(1, cols, tracks)
	p.SegPattern = segPattern
	p.PhaseStep = 0
	return arch.MustNew(p)
}

func placePair(t *testing.T, a *arch.Arch, nl *netlist.Netlist, dCol, sCol int) *layout.Placement {
	t.Helper()
	p, err := layout.NewRandom(a, nl, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	d, s := nl.CellID("d"), nl.CellID("s")
	p.Swap(p.Loc[d], layout.Loc{Row: 0, Col: dCol})
	p.Swap(p.Loc[s], layout.Loc{Row: 0, Col: sCol})
	p.SetPinmap(d, 3) // output bottom -> channel 0
	p.SetPinmap(s, 2) // inputs bottom -> channel 0
	return p
}

// TestElmoreHandComputed checks NetDelays against an independently derived
// closed form for a two-pin net on a single full-width segment.
func TestElmoreHandComputed(t *testing.T) {
	a := flatArch([]int{8}, 1)
	nl := pairNetlist()
	p := placePair(t, a, nl, 2, 5)
	id := nl.NetID("n")
	r := fabric.NetRoute{Global: true, Chans: []fabric.ChanAssign{
		{Ch: 0, Lo: 2, Hi: 5, Track: 0, SegLo: 0, SegHi: 0},
	}}
	var dc DelayCalc
	got, err := dc.NetDelays(p, id, &r, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d delays, want 1", len(got))
	}
	rc := a.RC
	// Hand derivation: source -RDriver+RCross-> d(2) -3 cols-> s(5) -RCross-> pin.
	// Wire cap: overhang [0,2)=2 at d, span 3 split 1.5/1.5, overhang [5,8)=3 at s.
	cd := rc.CCross + 2*rc.CUnit + 1.5*rc.CUnit
	cs := 1.5*rc.CUnit + 3*rc.CUnit
	cpin := rc.CCross + rc.CPin
	total := cd + cs + cpin
	want := (rc.RDriver+rc.RCross)*total + (rc.RUnit*3)*(cs+cpin) + rc.RCross*cpin
	if math.Abs(got[0]-want) > 1e-9*want {
		t.Errorf("delay = %v, want %v", got[0], want)
	}
}

// TestMoreAntifusesSlower: identical span, but a route crossing three extra
// horizontal antifuses must be slower — delay tracks antifuse count, not just
// length (the paper's core timing observation).
func TestMoreAntifusesSlower(t *testing.T) {
	p := arch.Default(1, 8, 2)
	p.SegPattern = []int{2, 2, 2, 2, 8}
	p.PhaseStep = 8 // track 0: four short segments; track 1: one long segment
	a := arch.MustNew(p)
	nl := pairNetlist()
	pl := placePair(t, a, nl, 0, 7)
	id := nl.NetID("n")

	seg := func(track int) fabric.NetRoute {
		sl, sh := a.SegRange(track, 0, 7)
		return fabric.NetRoute{Global: true, Chans: []fabric.ChanAssign{
			{Ch: 0, Lo: 0, Hi: 7, Track: track, SegLo: sl, SegHi: sh},
		}}
	}
	short := seg(0)
	long := seg(1)
	var dcShort, dcLong DelayCalc
	dShort, err := dcShort.NetDelays(pl, id, &short, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	dLong, err := dcLong.NetDelays(pl, id, &long, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if dShort[0] <= dLong[0] {
		t.Errorf("4-segment route (%.1f ps) should be slower than 1-segment route (%.1f ps)", dShort[0], dLong[0])
	}
	// Sanity: the difference should be substantial (3 antifuses in the path).
	if dShort[0] < 1.2*dLong[0] {
		t.Errorf("antifuse penalty too weak: %.1f vs %.1f ps", dShort[0], dLong[0])
	}
}

// TestShorterNetCanBeSlower reproduces the delay non-monotonicity claim: a
// shorter interval forced across several antifuses can be slower than a
// longer interval on one segment.
func TestShorterNetCanBeSlower(t *testing.T) {
	p := arch.Default(1, 12, 2)
	// Track 0: six 1-column segments then [6,12); track 1: one [0,12) segment.
	p.SegPattern = []int{1, 1, 1, 1, 1, 1, 6, 12}
	p.PhaseStep = 12
	a := arch.MustNew(p)
	nl := pairNetlist()

	// Short net: span 5 over track 0 (crosses 5 antifuses).
	pShort := placePair(t, a, nl, 0, 5)
	sl, sh := a.SegRange(0, 0, 5)
	rShort := fabric.NetRoute{Global: true, Chans: []fabric.ChanAssign{{Ch: 0, Lo: 0, Hi: 5, Track: 0, SegLo: sl, SegHi: sh}}}
	var dcShort, dcLong DelayCalc
	dShort, err := dcShort.NetDelays(pShort, nl.NetID("n"), &rShort, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Long net: span 9 over track 1 (single segment, no antifuses).
	pLong := placePair(t, a, nl, 0, 9)
	rLong := fabric.NetRoute{Global: true, Chans: []fabric.ChanAssign{{Ch: 0, Lo: 0, Hi: 9, Track: 1, SegLo: 0, SegHi: 0}}}
	dLong, err := dcLong.NetDelays(pLong, nl.NetID("n"), &rLong, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if dShort[0] <= dLong[0] {
		t.Errorf("shorter-but-fragmented net (%.1f ps) should exceed longer single-segment net (%.1f ps)",
			dShort[0], dLong[0])
	}
}

// routeDesign places and fully routes a netgen design; skips nets that fail
// (callers assert on the failure count).
func routeDesign(t *testing.T, a *arch.Arch, nl *netlist.Netlist, seed int64) (*layout.Placement, *fabric.Fabric, []fabric.NetRoute, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p, err := layout.NewRandom(a, nl, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := fabric.New(a)
	routes := make([]fabric.NetRoute, nl.NumNets())
	gFail := groute.RouteAll(f, p, routes)
	dFail := droute.RouteAllDetailed(f, routes, 4, rng)
	return p, f, routes, len(gFail) + dFail
}

func TestNetDelaysOnRoutedDesign(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 16, 30)) // generous tracks
	p, f, routes, failed := routeDesign(t, a, nl, 3)
	if failed > 0 {
		t.Fatalf("%d nets unrouted despite generous fabric", failed)
	}
	if err := f.CheckConsistent(routes); err != nil {
		t.Fatal(err)
	}
	var dc DelayCalc
	for id := range routes {
		if len(nl.Nets[id].Sinks) == 0 {
			continue
		}
		d, err := dc.NetDelays(p, int32(id), &routes[id], 1.0)
		if err != nil {
			t.Fatalf("net %d: %v", id, err)
		}
		for si, v := range d {
			if v <= 0 || math.IsNaN(v) || v > 1e6 {
				t.Errorf("net %d sink %d: implausible delay %v", id, si, v)
			}
		}
	}
}

func TestNetDelaysRejectsUnrouted(t *testing.T) {
	nl := pairNetlist()
	a := flatArch([]int{8}, 1)
	p := placePair(t, a, nl, 1, 6)
	r := fabric.NetRoute{Global: true, Chans: []fabric.ChanAssign{{Ch: 0, Lo: 1, Hi: 6, Track: -1}}}
	var dc DelayCalc
	if _, err := dc.NetDelays(p, nl.NetID("n"), &r, 1.0); err == nil {
		t.Error("unrouted net accepted")
	}
}

func TestEstimateDelays(t *testing.T) {
	nl := pairNetlist()
	a := flatArch([]int{4, 4}, 2)
	id := nl.NetID("n")

	near := placePair(t, a, nl, 3, 4)
	far := placePair(t, a, nl, 0, 7)
	dNear := EstimateDelays(near, id)
	dFar := EstimateDelays(far, id)
	if len(dNear) != 1 || len(dFar) != 1 {
		t.Fatal("wrong arity")
	}
	if dNear[0] <= 0 || dFar[0] <= dNear[0] {
		t.Errorf("estimate not increasing with span: near %.1f far %.1f", dNear[0], dFar[0])
	}
}

// Estimates should be the right order of magnitude relative to the detailed
// model — the paper calls them crude but they steer the early anneal.
func TestEstimateWithinFactorOfElmore(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 16, 30))
	p, _, routes, failed := routeDesign(t, a, nl, 5)
	if failed > 0 {
		t.Skip("routing incomplete; covered elsewhere")
	}
	checked := 0
	var dc DelayCalc
	for id := range routes {
		if len(nl.Nets[id].Sinks) == 0 {
			continue
		}
		exact, err := dc.NetDelays(p, int32(id), &routes[id], 1.0)
		if err != nil {
			t.Fatal(err)
		}
		est := EstimateDelays(p, int32(id))
		maxExact := 0.0
		for _, v := range exact {
			if v > maxExact {
				maxExact = v
			}
		}
		if est[0] < maxExact/6 || est[0] > maxExact*6 {
			t.Errorf("net %d: estimate %.1f vs exact %.1f beyond 6x", id, est[0], maxExact)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d nets checked", checked)
	}
}

func TestVerifyAgreement(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 40, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(6, 16, 30))
	p, _, routes, failed := routeDesign(t, a, nl, 7)
	if failed > 0 {
		t.Skip("routing incomplete")
	}
	// In-loop WCD: analyzer fed with the in-loop Elmore model.
	an, err := Analyze(p, routes)
	if err != nil {
		t.Fatal(err)
	}
	inLoop := an.WCD()

	res, err := Verify(p, routes, inLoop)
	if err != nil {
		t.Fatal(err)
	}
	if res.WCD < inLoop {
		t.Errorf("independent model (%.1f) should not be faster than in-loop (%.1f)", res.WCD, inLoop)
	}
	if res.Agreement < 0.85 || res.Agreement > 1.001 {
		t.Errorf("agreement %.3f outside [0.85, 1.0] (paper: within 90%%)", res.Agreement)
	}
}

// TestAnalyzeChoosesModelPerNet: Analyze fills a completely routed net with
// its in-loop Elmore delays and every other net with the spatial estimate,
// and with nil routes estimates every net.
func TestAnalyzeChoosesModelPerNet(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 16, 30))
	p, _, routes, failed := routeDesign(t, a, nl, 3)
	if failed > 0 {
		t.Fatalf("%d nets unrouted despite generous fabric", failed)
	}
	for id := range routes {
		if id%3 == 0 {
			routes[id] = fabric.NetRoute{} // leave every third net unrouted
		}
	}
	var dc DelayCalc
	for _, rts := range [][]fabric.NetRoute{routes, nil} {
		an, err := Analyze(p, rts)
		if err != nil {
			t.Fatal(err)
		}
		for id := range nl.Nets {
			if len(nl.Nets[id].Sinks) == 0 {
				continue
			}
			want := EstimateDelays(p, int32(id))
			if rts != nil && id%3 != 0 {
				if want, err = dc.NetDelays(p, int32(id), &rts[id], 1.0); err != nil {
					t.Fatal(err)
				}
			}
			if got := an.NetDelay(int32(id)); !slices.Equal(got, want) {
				t.Errorf("routes nil %v, net %d: delays %v, want %v", rts == nil, id, got, want)
			}
		}
	}
	// Verify, unlike Analyze, needs every net routed.
	if _, err := Verify(p, routes, 1); err == nil || !strings.HasPrefix(err.Error(), "timing: verify: timing: net ") ||
		!strings.HasSuffix(err.Error(), " is not completely routed") {
		t.Errorf("Verify with unrouted nets: error %v", err)
	}
}

// rcEdge is one resistive connection of the undirected RC graph.
type rcEdge struct {
	to int
	r  float64
}

// rcGraph is a net's RC network built as a graph: the evaluator that
// DelayCalc.NetDelays replaced, kept as its bit-for-bit reference. It is a
// tree, built undirected and oriented away from the source when evaluated.
type rcGraph struct {
	cap    []float64
	adj    [][]rcEdge
	sinkAt []int // node -> sink index or -1
}

func (g *rcGraph) addNode(c float64) int {
	g.cap = append(g.cap, c)
	g.adj = append(g.adj, nil)
	g.sinkAt = append(g.sinkAt, -1)
	return len(g.cap) - 1
}

func (g *rcGraph) addCap(n int, c float64) { g.cap[n] += c }

// addEdge connects a and b with resistance r and wire capacitance c split
// evenly between the endpoints.
func (g *rcGraph) addEdge(a, b int, r, c float64) {
	g.adj[a] = append(g.adj[a], rcEdge{to: b, r: r})
	g.adj[b] = append(g.adj[b], rcEdge{to: a, r: r})
	g.cap[a] += c / 2
	g.cap[b] += c / 2
}

// elmore roots the tree at node root and returns the Elmore delay to each of
// the nsinks sink nodes.
func (g *rcGraph) elmore(root, nsinks int) ([]float64, error) {
	n := len(g.cap)
	parent := make([]int, n)
	parentR := make([]float64, n)
	down := make([]float64, n)
	delay := make([]float64, n)
	order := make([]int, 0, n)
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[root] = -1
	stack := []int{root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, u)
		for _, e := range g.adj[u] {
			if parent[e.to] == -2 {
				parent[e.to] = u
				parentR[e.to] = e.r
				stack = append(stack, e.to)
			} else if e.to != parent[u] {
				return nil, fmt.Errorf("timing: RC network is not a tree")
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("timing: RC network is disconnected (%d of %d nodes reached)", len(order), n)
	}
	// Reverse preorder gives children before parents: accumulate downstream
	// capacitance, then delays in preorder.
	copy(down, g.cap)
	for i := n - 1; i >= 1; i-- {
		u := order[i]
		down[parent[u]] += down[u]
	}
	for _, u := range order[1:] {
		delay[u] = delay[parent[u]] + parentR[u]*down[u]
	}
	out := make([]float64, nsinks)
	for u := 0; u < n; u++ {
		if s := g.sinkAt[u]; s >= 0 {
			out[s] = delay[u]
		}
	}
	return out, nil
}

// graphNetDelays is DelayCalc.NetDelays computed by building the net's RC
// graph and walking it.
func graphNetDelays(p *layout.Placement, id int32, r *fabric.NetRoute, wireLoad float64) ([]float64, error) {
	if !r.DetailDone() {
		return nil, fmt.Errorf("timing: net %d is not completely routed", id)
	}
	net := &p.NL.Nets[id]
	if len(net.Sinks) == 0 {
		return nil, nil
	}
	a := p.A
	rc := a.RC
	g := &rcGraph{}
	source := g.addNode(0)

	tapsByCh := make([][]tap, a.Channels())
	drvCh, drvCol := p.PinPos(net.Driver)
	tapsByCh[drvCh] = append(tapsByCh[drvCh], tap{col: drvCol, kind: driverTap, sink: -1})
	for si, s := range net.Sinks {
		ch, col := p.PinPos(s)
		tapsByCh[ch] = append(tapsByCh[ch], tap{col: col, kind: sinkTap, sink: si})
	}
	if r.HasTrunk {
		for i := range r.Chans {
			ch := r.Chans[i].Ch
			tapsByCh[ch] = append(tapsByCh[ch], tap{col: r.TrunkCol, kind: trunkTap, sink: -1})
		}
	}

	trunkNode := make([]int, a.Channels())
	seenDriver := false
	for i := range r.Chans {
		ca := &r.Chans[i]
		ts := tapsByCh[ca.Ch]
		if len(ts) == 0 {
			return nil, fmt.Errorf("timing: net %d routed channel %d has no taps", id, ca.Ch)
		}
		sortTapsByCol(ts)
		segs := a.Seg[ca.Track]
		runStart := segs[ca.SegLo].Start
		runEnd := segs[ca.SegHi].End // exclusive
		var boundaries []int
		for s := ca.SegLo; s < ca.SegHi; s++ {
			boundaries = append(boundaries, segs[s].End)
		}
		hspan := func(x0, x1 int) (wire float64, nb int) {
			for _, b := range boundaries {
				if b > x0 && b <= x1 {
					nb++
				}
			}
			return float64(x1 - x0), nb
		}

		// Chain the tap nodes along the run.
		chain := make([]int, len(ts))
		for ti := range ts {
			chain[ti] = g.addNode(0)
			if ti > 0 {
				wire, nb := hspan(ts[ti-1].col, ts[ti].col)
				g.addEdge(chain[ti-1], chain[ti],
					rc.RUnit*wire+rc.RAntifuse*float64(nb),
					wireLoad*rc.CUnit*wire+rc.CAntifuse*float64(nb))
			}
		}
		// Overhang: allocated-but-unused segment length still loads the net.
		lw, lnb := hspan(runStart, ts[0].col)
		g.addCap(chain[0], wireLoad*rc.CUnit*lw+rc.CAntifuse*float64(lnb))
		rw, rnb := hspan(ts[len(ts)-1].col, runEnd)
		g.addCap(chain[len(ts)-1], wireLoad*rc.CUnit*rw+rc.CAntifuse*float64(rnb))

		for ti, tp := range ts {
			node := chain[ti]
			switch tp.kind {
			case driverTap:
				g.addEdge(source, node, rc.RDriver+rc.RCross, 0)
				g.addCap(node, rc.CCross)
				seenDriver = true
			case sinkTap:
				pin := g.addNode(rc.CCross + rc.CPin)
				g.addEdge(node, pin, rc.RCross, 0)
				g.sinkAt[pin] = tp.sink
			case trunkTap:
				trunkNode[ca.Ch] = node
			}
		}
	}
	if !seenDriver {
		return nil, fmt.Errorf("timing: net %d driver channel %d not covered by route", id, drvCh)
	}

	if r.HasTrunk {
		var chs []int
		for i := range r.Chans {
			chs = append(chs, r.Chans[i].Ch)
		}
		slices.Sort(chs)
		var vBoundaries []int
		for s := r.VLo; s < r.VHi; s++ {
			vBoundaries = append(vBoundaries, (s+1)*a.VSpan)
		}
		vspan := func(c0, c1 int) (wire float64, nb int) {
			for _, b := range vBoundaries {
				if b > c0 && b <= c1 {
					nb++
				}
			}
			return float64(c1 - c0), nb
		}
		// One vertical node per tapped channel, chained in channel order,
		// each joined to its run through a programmed antifuse.
		vnodes := make([]int, len(chs))
		for i, ch := range chs {
			vnodes[i] = g.addNode(0)
			g.addEdge(vnodes[i], trunkNode[ch], rc.RAntifuse, rc.CAntifuse)
			if i > 0 {
				wire, nb := vspan(chs[i-1], chs[i])
				g.addEdge(vnodes[i-1], vnodes[i],
					rc.RVUnit*wire+rc.RAntifuse*float64(nb),
					wireLoad*rc.CVUnit*wire+rc.CAntifuse*float64(nb))
			}
		}
		// Vertical overhang beyond the extreme tapped channels.
		vLoCh := r.VLo * a.VSpan
		vHiCh := min((r.VHi+1)*a.VSpan-1, a.Channels()-1)
		lw, lnb := vspan(vLoCh, chs[0])
		g.addCap(vnodes[0], wireLoad*rc.CVUnit*lw+rc.CAntifuse*float64(lnb))
		hw, hnb := vspan(chs[len(chs)-1], vHiCh)
		g.addCap(vnodes[len(chs)-1], wireLoad*rc.CVUnit*hw+rc.CAntifuse*float64(hnb))
	}

	return g.elmore(source, len(net.Sinks))
}

// matchGraph requires the direct evaluator's delays for net id to equal the
// graph reference's bit for bit, or both to fail with the same error.
func matchGraph(t *testing.T, dc *DelayCalc, p *layout.Placement, id int32, r *fabric.NetRoute, wireLoad float64) {
	t.Helper()
	want, werr := graphNetDelays(p, id, r, wireLoad)
	got, gerr := dc.NetDelays(p, id, r, wireLoad)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("net %d at wire load %v: error %v, graph %v", id, wireLoad, gerr, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("net %d at wire load %v: %d delays, graph %d", id, wireLoad, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("net %d sink %d at wire load %v: %v, graph %v", id, i, wireLoad, got[i], want[i])
		}
	}
}

// malformed returns a copy of net id's detail-routed route broken in one of
// five ways, chosen by k: a channel left unrouted, the trunk dropped, the
// first channel dropped, every channel dropped, or the trunk dropped and a
// channel without pins added first.
func malformed(p *layout.Placement, id int32, r *fabric.NetRoute, k int) fabric.NetRoute {
	m := r.Clone()
	switch k % 5 {
	case 0:
		if len(m.Chans) > 0 {
			m.Chans[len(m.Chans)-1].Track = -1
		}
	case 1:
		m.HasTrunk = false
	case 2:
		if len(m.Chans) > 0 {
			m.Chans = m.Chans[1:]
		}
	case 3:
		m.Chans = nil
	default:
		m.HasTrunk = false
		used := make([]bool, p.A.Channels())
		for _, ca := range m.Chans {
			used[ca.Ch] = true
		}
		net := &p.NL.Nets[id]
		for _, pin := range append([]netlist.PinRef{net.Driver}, net.Sinks...) {
			ch, _ := p.PinPos(pin)
			used[ch] = true
		}
		if ch := slices.Index(used, false); ch >= 0 {
			sl, sh := p.A.SegRange(0, 0, 0)
			m.Chans = append([]fabric.ChanAssign{{Ch: ch, Track: 0, SegLo: sl, SegHi: sh}}, m.Chans...)
		}
	}
	return m
}

// TestNetDelaysMatchGraph compares the direct evaluator with the graph walk
// it replaced on every net of routed netgen designs, at wire loads 1.0 and
// VerifyWireLoad, on random arrays, and on each net's malformed copies. One
// DelayCalc serves every call, as in the move loop.
func TestNetDelaysMatchGraph(t *testing.T) {
	var dc DelayCalc
	evals, errs := 0, map[string]int{}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl, err := netgen.Generate(netgen.Params{Name: "g", Inputs: 4, Outputs: 3, Seq: 2, Comb: 20 + rng.Intn(30), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rows := 2 + rng.Intn(6)
		ap := arch.Default(rows, (nl.NumCells()*(12+rng.Intn(10))/10+rows-1)/rows, 8+rng.Intn(30))
		ap.SegPattern = []int{1 + rng.Intn(8), 1 + rng.Intn(12), 1 + rng.Intn(5)}
		ap.PhaseStep = rng.Intn(6)
		ap.VTracks = 1 + rng.Intn(5)
		ap.VSpan = 1 + rng.Intn(4)
		p, _, routes, _ := routeDesign(t, arch.MustNew(ap), nl, seed)
		for id := range routes {
			if !routes[id].DetailDone() {
				continue
			}
			for _, wl := range []float64{1.0, VerifyWireLoad} {
				matchGraph(t, &dc, p, int32(id), &routes[id], wl)
				evals++
			}
			for k := 0; k < 5; k++ {
				m := malformed(p, int32(id), &routes[id], k)
				matchGraph(t, &dc, p, int32(id), &m, 1.0)
				if _, err := dc.NetDelays(p, int32(id), &m, 1.0); err != nil {
					for _, kind := range []string{"is not completely routed", "has no taps", "not covered by route", "is disconnected"} {
						if strings.Contains(err.Error(), kind) {
							errs[kind]++
						}
					}
				}
			}
		}
	}
	if evals < 1000 || len(errs) < 4 {
		t.Errorf("%d evaluations; malformed routes' errors by kind: %v", evals, errs)
	}
}

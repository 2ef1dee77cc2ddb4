package timing

import (
	"math"
	"testing"
)

// cellSlacks is each cell's required output time against target minus its
// arrival: zero on the critical path, +Inf where no timing sink is reached.
func cellSlacks(an *Analyzer, target float64) []float64 {
	slack := make([]float64, len(an.nl.Cells))
	an.requiredInto(slack, target)
	for i := range slack {
		slack[i] -= an.arr[i]
	}
	return slack
}

func TestSlacksOnFigure5(t *testing.T) {
	nl := figure5Netlist(t)
	an, err := NewAnalyzer(nl)
	if err != nil {
		t.Fatal(err)
	}
	// Slow the B branch so A -> C is off-critical.
	an.Begin()
	an.SetNetDelays(nl.NetID("n2"), []float64{500})
	an.Propagate()
	an.Commit()
	wcd := an.WCD()
	slack := cellSlacks(an, wcd)

	// Critical path: pi2 -> B -> C -> D -> po1 must have zero slack.
	for _, name := range []string{"pi2", "B", "C", "D"} {
		id := nl.CellID(name)
		if math.Abs(slack[id]) > 1e-9 {
			t.Errorf("%s slack = %v, want 0", name, slack[id])
		}
	}
	// A is off-critical by the 500ps the B branch gained.
	a := nl.CellID("A")
	if math.Abs(slack[a]-500) > 1e-9 {
		t.Errorf("A slack = %v, want 500", slack[a])
	}
	// I terminates at po2, far from critical: slack = WCD - arr(po2 pin).
	i := nl.CellID("I")
	if slack[i] <= slack[nl.CellID("B")] {
		t.Errorf("I should have positive slack, got %v", slack[i])
	}
}

func TestNetCriticality(t *testing.T) {
	nl := figure5Netlist(t)
	an, err := NewAnalyzer(nl)
	if err != nil {
		t.Fatal(err)
	}
	an.Begin()
	an.SetNetDelays(nl.NetID("n2"), []float64{500})
	an.Propagate()
	an.Commit()
	crit := an.NetCriticality(an.WCD())
	// Nets on the critical path are fully critical.
	for _, name := range []string{"n2", "nb", "nc", "nd"} {
		id := nl.NetID(name)
		if crit[id] < 0.999 {
			t.Errorf("net %s criticality = %v, want 1", name, crit[id])
		}
	}
	// ni terminates a short path: clearly less critical.
	if ni := crit[nl.NetID("ni")]; ni > 0.9 {
		t.Errorf("net ni criticality = %v, want well below critical", ni)
	}
	for id, c := range crit {
		if c < 0 || c > 1 {
			t.Errorf("net %d criticality %v out of [0,1]", id, c)
		}
	}
}

func TestTopPaths(t *testing.T) {
	nl := figure5Netlist(t)
	an, err := NewAnalyzer(nl)
	if err != nil {
		t.Fatal(err)
	}
	an.Begin()
	an.SetNetDelays(nl.NetID("n2"), []float64{500})
	an.Propagate()
	an.Commit()
	paths := an.TopPaths(10)
	if len(paths) != 2 {
		t.Fatalf("%d endpoints, want 2 (po1, po2)", len(paths))
	}
	if paths[0].Arrival < paths[1].Arrival {
		t.Error("paths not sorted worst-first")
	}
	if paths[0].Arrival != an.WCD() {
		t.Errorf("worst path arrival %v != WCD %v", paths[0].Arrival, an.WCD())
	}
	// Worst path is pi2 -> B -> C -> D -> po1.
	want := []string{"pi2", "B", "C", "D", "po1"}
	if len(paths[0].Cells) != len(want) {
		t.Fatalf("path length %d, want %d", len(paths[0].Cells), len(want))
	}
	for i, id := range paths[0].Cells {
		if nl.Cells[id].Name != want[i] {
			t.Errorf("path[%d] = %s, want %s", i, nl.Cells[id].Name, want[i])
		}
	}
	// k smaller than endpoints.
	if got := an.TopPaths(1); len(got) != 1 {
		t.Errorf("TopPaths(1) returned %d", len(got))
	}
}

func TestSlackConsistencyWithWCD(t *testing.T) {
	// Property-flavored check on a generated design: min slack over cells on
	// some path is ~0 when target = WCD, and no slack is negative.
	nl := figure5Netlist(t)
	an, err := NewAnalyzer(nl)
	if err != nil {
		t.Fatal(err)
	}
	an.Begin()
	an.SetNetDelays(nl.NetID("n1"), []float64{123})
	an.SetNetDelays(nl.NetID("nb"), []float64{77, 310})
	an.Propagate()
	an.Commit()
	slack := cellSlacks(an, an.WCD())
	minSlack := math.Inf(1)
	for _, s := range slack {
		if s < minSlack {
			minSlack = s
		}
		if s < -1e-9 {
			t.Errorf("negative slack %v with target = WCD", s)
		}
	}
	if math.Abs(minSlack) > 1e-9 {
		t.Errorf("min slack = %v, want 0 (the critical path)", minSlack)
	}
}

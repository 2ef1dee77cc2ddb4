package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateBenchmarkNames(t *testing.T) {
	for _, name := range Benchmarks() {
		nl, err := GenerateBenchmark(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := nl.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := GenerateBenchmark("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestLoadSaveNetlist(t *testing.T) {
	nl, err := GenerateBenchmark("tiny")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveNetlist(&buf, nl); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.net")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadNetlist(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCells() != nl.NumCells() || got.NumNets() != nl.NumNets() {
		t.Error("round trip changed design shape")
	}
	// The same bytes under an unknown extension must fail on the format.
	path = filepath.Join(dir, "x.xyz")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadNetlist(path); err == nil || !strings.Contains(err.Error(), `unknown netlist format "xyz"`) {
		t.Errorf("unknown extension: error %v, want it to name format \"xyz\"", err)
	}
}

func TestLoadBlif(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.blif")
	blif := ".model d\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n"
	if err := os.WriteFile(path, []byte(blif), 0o644); err != nil {
		t.Fatal(err)
	}
	nl, err := LoadNetlist(path)
	if err != nil {
		t.Fatal(err)
	}
	if nl.Name != "d" {
		t.Errorf("model name %q", nl.Name)
	}
}

func TestSimultaneousFacade(t *testing.T) {
	nl, err := GenerateBenchmark("tiny")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ArchFor(nl, 20)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := Simultaneous(a, nl, SimConfig{Seed: 1, MovesPerCell: 6, MaxTemps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !lay.FullyRouted {
		t.Fatalf("tiny not routed: %d unrouted", lay.Unrouted)
	}
	if lay.Sim == nil || len(lay.Sim.Dynamics) == 0 {
		t.Error("missing sim run report")
	}
	wcd, agreement, err := lay.VerifyTiming()
	if err != nil {
		t.Fatal(err)
	}
	if wcd <= 0 || agreement < 0.8 || agreement > 1.05 {
		t.Errorf("verify: wcd=%v agreement=%v", wcd, agreement)
	}
	var buf bytes.Buffer
	if err := lay.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"design tiny", "100% complete", "worst-case delay"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestSequentialFacade(t *testing.T) {
	nl, err := GenerateBenchmark("tiny")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ArchFor(nl, 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SeqConfig{Seed: 1}
	cfg.Place.MovesPerCell = 5
	cfg.Place.MaxTemps = 40
	lay, err := Sequential(a, nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Sim != nil {
		t.Error("sequential layout should not carry a sim report")
	}
	if lay.WCD <= 0 {
		t.Error("no WCD")
	}
	if !lay.FullyRouted {
		t.Skipf("tiny at 20 tracks unrouted for this seed")
	}
	if _, _, err := lay.VerifyTiming(); err != nil {
		t.Error(err)
	}
}

func TestVerifyTimingRejectsPartial(t *testing.T) {
	nl, err := GenerateBenchmark("tiny")
	if err != nil {
		t.Fatal(err)
	}
	a, err := DefaultArch(4, 10, 1) // starved
	if err != nil {
		t.Fatal(err)
	}
	cfg := SeqConfig{Seed: 1}
	cfg.Place.MovesPerCell = 4
	cfg.Place.MaxTemps = 30
	lay, err := Sequential(a, nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lay.FullyRouted {
		t.Skip("unexpectedly routed")
	}
	if _, _, err := lay.VerifyTiming(); err == nil {
		t.Error("VerifyTiming on partial layout should fail")
	}
}

func TestLayoutSaveLoad(t *testing.T) {
	nl, err := GenerateBenchmark("tiny")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ArchFor(nl, 20)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := Simultaneous(a, nl, SimConfig{Seed: 1, MovesPerCell: 5, MaxTemps: 40})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lay.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLayout(a, nl, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.FullyRouted != lay.FullyRouted || got.Unrouted != lay.Unrouted {
		t.Error("routedness drifted through save/load")
	}
	if got.WCD != lay.WCD {
		t.Errorf("WCD drifted: %v vs %v", got.WCD, lay.WCD)
	}
}

func TestCriticalPathsFacade(t *testing.T) {
	nl, err := GenerateBenchmark("tiny")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ArchFor(nl, 20)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := Simultaneous(a, nl, SimConfig{Seed: 1, MovesPerCell: 5, MaxTemps: 40})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := lay.CriticalPaths(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	if paths[0].Arrival != lay.WCD {
		t.Errorf("worst path %v != layout WCD %v", paths[0].Arrival, lay.WCD)
	}
	if len(paths[0].CellNames) < 2 {
		t.Error("path too short")
	}
	crit, err := lay.NetCriticalities()
	if err != nil {
		t.Fatal(err)
	}
	max := 0.0
	for _, c := range crit {
		if c > max {
			max = c
		}
	}
	if max < 0.999 {
		t.Errorf("no fully critical net (max %v)", max)
	}
}

package render

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/droute"
	"repro/internal/fabric"
	"repro/internal/groute"
	"repro/internal/layout"
	"repro/internal/netgen"
)

func TestASCIIStructure(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "rd", Inputs: 3, Outputs: 2, Seq: 1, Comb: 15, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(3, 12, 8))
	rng := rand.New(rand.NewSource(1))
	p, err := layout.NewRandom(a, nl, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := fabric.New(a)
	routes := make([]fabric.NetRoute, nl.NumNets())
	groute.RouteAll(f, p, routes)
	droute.RouteAllDetailed(f, routes, 2, rng)

	out := ASCII(p, routes)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 1+a.Rows+a.Channels() {
		t.Fatalf("%d lines, want %d", len(lines), 1+a.Rows+a.Channels())
	}
	// Channels interleave rows top-down: ch3, row2, ch2, row1, ch1, row0, ch0.
	if !strings.HasPrefix(lines[1], "ch  3") || !strings.HasPrefix(lines[2], "row  2") {
		t.Errorf("interleaving broken:\n%s", out)
	}
	if !strings.HasPrefix(lines[len(lines)-1], "ch  0") {
		t.Errorf("last line should be channel 0: %q", lines[len(lines)-1])
	}
	for _, ln := range lines[1:] {
		if !strings.Contains(ln, "|") {
			t.Errorf("line missing frame: %q", ln)
		}
	}
	// Routed segments must produce non-blank channel shading somewhere.
	shaded := false
	for _, ln := range lines {
		if strings.HasPrefix(ln, "ch") && strings.ContainsAny(ln, ".:-=+*#") {
			shaded = true
		}
	}
	if !shaded {
		t.Error("no channel occupancy rendered despite routed nets")
	}
}

func TestASCIIEmptyFabric(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "rd2", Inputs: 3, Outputs: 2, Seq: 1, Comb: 10, Seed: 98})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(2, 10, 4))
	p, err := layout.NewRandom(a, nl, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	out := ASCII(p, make([]fabric.NetRoute, nl.NumNets()))
	if !strings.Contains(out, "peak 0/4") {
		t.Errorf("empty fabric should report zero peaks:\n%s", out)
	}
}

package netlist

import (
	"strings"
	"testing"
)

// Fuzz targets: the parsers must never panic, and anything they accept must
// validate and survive a write/parse round trip. Run with
// `go test -fuzz=FuzzParseNet ./internal/netlist` for exploration; the seed
// corpus runs in every plain `go test`.

func FuzzParseNet(f *testing.F) {
	f.Add("design d\ncell pi input 0 a\ncell g comb 3000 y a\ncell po output 0 - y\n")
	f.Add("# comment only\n")
	f.Add("design x\ncell a input 0 n1\ncell b seq 3500 n2 n1\ncell c output 0 - n2\n")
	f.Add("design bad\ncell a input 0\n")
	f.Add("cell before design\n")
	f.Fuzz(func(t *testing.T, in string) {
		nl, err := ParseNet(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := nl.Validate(); verr != nil {
			t.Fatalf("accepted netlist fails validation: %v", verr)
		}
		var sb strings.Builder
		if werr := WriteNet(&sb, nl); werr != nil {
			t.Fatalf("write: %v", werr)
		}
		again, rerr := ParseNet(strings.NewReader(sb.String()))
		if rerr != nil {
			t.Fatalf("canonical output fails to reparse: %v", rerr)
		}
		if again.NumCells() != nl.NumCells() || again.NumNets() != nl.NumNets() {
			t.Fatal("round trip changed shape")
		}
	})
}

func FuzzParseBlif(f *testing.F) {
	f.Add(".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n")
	f.Add(".model m\n.latch a b re c 0\n.inputs a\n.outputs b\n.end\n")
	f.Add(".model\n")
	f.Add(".names x y\n")
	f.Add(".model m\n.inputs a \\\nb\n.outputs y\n.names a b y\n.end\n")
	f.Fuzz(func(t *testing.T, in string) {
		nl, err := ParseBlif(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := nl.Validate(); verr != nil {
			t.Fatalf("accepted netlist fails validation: %v", verr)
		}
	})
}

func FuzzParseXnf(f *testing.F) {
	f.Add("LCANET, 4\nEXT, A, I\nEXT, Y, O\nSYM, G, AND2\nPIN, O, O, Y\nPIN, I, I, A\nEND\nEOF\n")
	f.Add("LCANET, 4\nSYM, F, DFF\nPIN, Q, O, q\nPIN, D, I, d\nPIN, C, I, clk\nEND\nEXT, d, I\nEXT, q, O\nEOF\n")
	f.Add("PIN, O, O, x\n")
	f.Fuzz(func(t *testing.T, in string) {
		nl, err := ParseXnf(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := nl.Validate(); verr != nil {
			t.Fatalf("accepted netlist fails validation: %v", verr)
		}
	})
}

package netlist

import (
	"strings"
	"testing"
)

const sampleXnf = `
LCANET, 4
PROG, repro-test, 1.0
# structural sample with a flop
EXT, A, I
EXT, B, I
EXT, Y, O
SYM, G1, AND2 { a comment }
PIN, O, O, T1
PIN, I0, I, A
PIN, I1, I, B
END
SYM, FF1, DFF
PIN, Q, O, Q1
PIN, D, I, T1
PIN, C, I, CLK_NET
END
SYM, G2, OR2
PIN, O, O, Y
PIN, I0, I, Q1
PIN, I1, I, A
END
EOF
`

func TestParseXnf(t *testing.T) {
	nl, err := Parse(strings.NewReader(sampleXnf), "xnf")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	s := nl.ComputeStats()
	if s.Inputs != 2 || s.Outputs != 1 || s.CombCells != 2 || s.SeqCells != 1 {
		t.Errorf("shape: %+v", s)
	}
	ff := nl.CellID("FF1")
	if ff < 0 {
		t.Fatal("FF1 missing")
	}
	if nl.Cells[ff].Type != Seq {
		t.Error("DFF not sequential")
	}
	// The clock pin must not appear as a data input.
	if len(nl.Cells[ff].In) != 1 {
		t.Errorf("FF1 has %d data inputs, want 1", len(nl.Cells[ff].In))
	}
	if err := nl.Validate(); err != nil {
		t.Error(err)
	}
	// G2 reads Q1 from the flop and A from the pad.
	g2 := nl.CellID("G2")
	if len(nl.Cells[g2].In) != 2 {
		t.Errorf("G2 fanin %d", len(nl.Cells[g2].In))
	}
	checkModuleDelays(t, nl)
}

func TestParseXnfErrors(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"no header", "SYM, G, AND2\nPIN, O, O, x\nPIN, I, I, y\nEND\n", "missing LCANET"},
		{"pin outside sym", "LCANET, 4\nPIN, O, O, x\n", "PIN outside SYM"},
		{"two outputs", "LCANET, 4\nSYM, G, AND2\nPIN, O, O, x\nPIN, O2, O, y\n", "two output pins"},
		{"no output", "LCANET, 4\nSYM, G, AND2\nPIN, I, I, y\nEND\n", "no output pin"},
		{"no inputs", "LCANET, 4\nSYM, G, AND2\nPIN, O, O, x\nEND\n", "no input pins"},
		{"bad ext dir", "LCANET, 4\nEXT, x, Q\n", "EXT direction"},
		{"bad record", "LCANET, 4\nFROB, 1\n", "unknown record"},
		{"bad pin dir", "LCANET, 4\nSYM, G, AND2\nPIN, O, B, x\n", "PIN direction"},
		{"short sym", "LCANET, 4\nSYM, G\n", "SYM wants"},
		{"short pin", "LCANET, 4\nSYM, G, AND2\nPIN, O\n", "PIN wants"},
	}
	for _, tc := range cases {
		_, err := ParseXnf(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want contains %q", tc.name, err, tc.want)
		}
	}
}

func TestParseXnfIgnoresAfterEOF(t *testing.T) {
	in := sampleXnf + "\ngarbage that would fail\n"
	if _, err := ParseXnf(strings.NewReader(in)); err != nil {
		t.Fatalf("content after EOF should be ignored: %v", err)
	}
}

func TestXnfToNetRoundTrip(t *testing.T) {
	nl, err := ParseXnf(strings.NewReader(sampleXnf))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteNet(&sb, nl); err != nil {
		t.Fatal(err)
	}
	again, err := ParseNet(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if again.NumCells() != nl.NumCells() || again.NumNets() != nl.NumNets() {
		t.Error("XNF -> .net -> parse changed shape")
	}
}

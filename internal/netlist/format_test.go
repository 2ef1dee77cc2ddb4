package netlist

import (
	"bytes"
	"strings"
	"testing"
)

func TestNetFormatRoundTrip(t *testing.T) {
	nl := tiny(t)
	var buf bytes.Buffer
	if err := WriteNet(&buf, nl); err != nil {
		t.Fatalf("WriteNet: %v", err)
	}
	got, err := ParseNet(&buf)
	if err != nil {
		t.Fatalf("ParseNet: %v", err)
	}
	if got.Name != nl.Name || got.NumCells() != nl.NumCells() || got.NumNets() != nl.NumNets() {
		t.Fatalf("round trip changed shape: %s %d/%d vs %s %d/%d",
			got.Name, got.NumCells(), got.NumNets(), nl.Name, nl.NumCells(), nl.NumNets())
	}
	// Second write must be byte-identical (canonical form).
	var buf2 bytes.Buffer
	if err := WriteNet(&buf, nl); err != nil {
		t.Fatal(err)
	}
	if err := WriteNet(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("write(parse(write(x))) != write(x)")
	}
}

func TestParseNetErrors(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"no design", "cell a input 0 n\n", "missing design"},
		{"dup design", "design a\ndesign b\n", "duplicate design"},
		{"bad directive", "design a\nwat 1 2\n", "unknown directive"},
		{"short cell", "design a\ncell x input 0\n", "cell wants"},
		{"bad type", "design a\ncell x foo 0 n\n", "unknown cell type"},
		{"bad delay", "design a\ncell x input -3 n\n", "bad delay"},
		{"bad delay text", "design a\ncell x input xx n\n", "bad delay"},
	}
	for _, tc := range cases {
		_, err := ParseNet(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want contains %q", tc.name, err, tc.want)
		}
	}
}

func TestParseNetCommentsAndBlank(t *testing.T) {
	in := `
# header comment
design d

cell pi_a input 0 a
cell g comb 3000 y a
# trailing
cell po output 0 - y
`
	nl, err := ParseNet(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseNet: %v", err)
	}
	if nl.NumCells() != 3 {
		t.Errorf("cells = %d, want 3", nl.NumCells())
	}
}

const sampleBlif = `
# MCNC-style sample
.model demo
.inputs a b \
        c
.outputs f g
.names a b t1
11 1
.names t1 c f
1- 1
-1 1
.latch f g re clk 0
.end
`

func TestParseBlif(t *testing.T) {
	nl, err := Parse(strings.NewReader(sampleBlif), "blif")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if nl.Name != "demo" {
		t.Errorf("model name = %q", nl.Name)
	}
	s := nl.ComputeStats()
	// 3 PIs, 2 POs, 2 comb cells, 1 latch.
	if s.Inputs != 3 || s.Outputs != 2 || s.CombCells != 2 || s.SeqCells != 1 {
		t.Errorf("bad shape: %+v", s)
	}
	// The latch output net "g" feeds primary output pad po_g.
	g := nl.NetID("g")
	if g < 0 {
		t.Fatal("net g missing")
	}
	if nl.Cells[nl.Nets[g].Driver.Cell].Type != Seq {
		t.Error("net g should be driven by the latch")
	}
	if err := nl.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	checkModuleDelays(t, nl)
}

// checkModuleDelays asserts that the parser gave every combinational cell
// CombDelay and every sequential cell SeqDelay.
func checkModuleDelays(t *testing.T, nl *Netlist) {
	t.Helper()
	for _, c := range nl.Cells {
		if (c.Type == Comb && c.Delay != CombDelay) || (c.Type == Seq && c.Delay != SeqDelay) {
			t.Errorf("%s cell %s has delay %v", c.Type, c.Name, c.Delay)
		}
	}
}

func TestParseBlifConstNames(t *testing.T) {
	in := `
.model c
.inputs a
.outputs f
.names one
1
.names a one f
11 1
.end
`
	nl, err := ParseBlif(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseBlif: %v", err)
	}
	one := nl.NetID("one")
	if one < 0 {
		t.Fatal("constant net missing")
	}
	if nl.Cells[nl.Nets[one].Driver.Cell].Type != Input {
		t.Error("constant generator should be modeled as a source pad")
	}
}

func TestParseBlifErrors(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"no model", ".inputs a\n.end\n", "missing .model"},
		{"two models", ".model a\n.model b\n", "multiple .model"},
		{"unknown", ".model a\n.frob x\n", "unknown construct"},
		{"unsupported", ".model a\n.gate nand2 a=x b=y o=z\n", "unsupported construct"},
		{"stray row", ".model a\n11 1\n", "outside any command"},
		{"short latch", ".model a\n.latch x\n", ".latch wants"},
		{"empty names", ".model a\n.names\n", ".names with no signals"},
	}
	for _, tc := range cases {
		_, err := ParseBlif(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want contains %q", tc.name, err, tc.want)
		}
	}
}

func TestParseBlifTwoModelsAfterEndIgnored(t *testing.T) {
	// Content after .end is ignored per common BLIF practice.
	in := ".model a\n.inputs x\n.outputs y\n.names x y\n1 1\n.end\ngarbage here\n"
	if _, err := ParseBlif(strings.NewReader(in)); err != nil {
		t.Fatalf("post-.end content should be ignored: %v", err)
	}
}

func TestBlifThenNetRoundTrip(t *testing.T) {
	nl, err := ParseBlif(strings.NewReader(sampleBlif))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNet(&buf, nl); err != nil {
		t.Fatal(err)
	}
	again, err := ParseNet(&buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if again.NumCells() != nl.NumCells() || again.NumNets() != nl.NumNets() {
		t.Error("BLIF -> .net -> parse changed design shape")
	}
}

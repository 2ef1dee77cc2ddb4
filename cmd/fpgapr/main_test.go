package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// tinyOpts is the shared baseline: the tiny design, low effort, serial engine.
func tinyOpts() options {
	return options{design: "tiny", flow: "sim", tracks: 20, seed: 1,
		effort: 5, maxTemps: 40, chains: 1}
}

func TestRunSimOnTiny(t *testing.T) {
	if err := run(tinyOpts()); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimParallelChains(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := tinyOpts()
	o.chains = 2
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunSeqOnTiny(t *testing.T) {
	o := tinyOpts()
	o.flow = "seq"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunWirabilityOnlyAndRender(t *testing.T) {
	o := tinyOpts()
	o.wirability, o.render = true, true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithStatsAndProfiles(t *testing.T) {
	o := tinyOpts()
	o.stats = true
	o.pprofP = filepath.Join(t.TempDir(), "prof")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	// The CPU profile is finalized by run's deferred StopCPUProfile; the heap
	// profile by its deferred writer. Both files must exist and be non-empty.
	for _, suffix := range []string{".cpu.pprof", ".heap.pprof"} {
		st, err := os.Stat(o.pprofP + suffix)
		if err != nil {
			t.Fatalf("profile %s: %v", suffix, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", suffix)
		}
	}
}

func TestRunFromNetlistFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.blif")
	blif := ".model d\n.inputs a b\n.outputs f g\n.names a b x\n11 1\n.names x f\n1 1\n.latch x g re clk 0\n.end\n"
	if err := os.WriteFile(path, []byte(blif), 0o644); err != nil {
		t.Fatal(err)
	}
	o := tinyOpts()
	o.design, o.netlistPath = "", path
	o.tracks, o.maxTemps = 12, 30
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	mod := func(f func(*options)) options {
		o := tinyOpts()
		f(&o)
		return o
	}
	cases := []struct {
		name string
		o    options
		want string
	}{
		{"both sources", mod(func(o *options) { o.netlistPath = "x.net" }), "not both"},
		{"no source", mod(func(o *options) { o.design = "" }), "need -netlist"},
		{"bad flow", mod(func(o *options) { o.flow = "diagonal" }), "unknown -flow"},
		{"bad design", mod(func(o *options) { o.design = "nonesuch" }), "unknown design"},
		{"fanin below 2", mod(func(o *options) { o.maxFanin = 1 }), "minimum of 2"},
	}
	for _, tc := range cases {
		err := run(tc.o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want contains %q", tc.name, err, tc.want)
		}
	}
}

func TestRunWithTechMapping(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wide.blif")
	// A 7-input gate: illegal for 4-input modules until mapped.
	blif := ".model wide\n.inputs a b c d e f g\n.outputs y\n.names a b c d e f g y\n1111111 1\n.end\n"
	if err := os.WriteFile(path, []byte(blif), 0o644); err != nil {
		t.Fatal(err)
	}
	o := tinyOpts()
	o.design, o.netlistPath = "", path
	o.tracks, o.maxTemps, o.maxFanin = 12, 30, 4
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/layio"
)

// TestBoundedDecisionsMatchFull is the move bound's differential test: a run
// whose moves are decided at a bound on their cost (the default) and the same
// run with every move evaluated in full (fullEval, as if the anneal and the
// repair phase passed no rejects) must agree on the layout bytes, the router
// counts, the accepted counts, the repair outcome, the worst-case delay and
// the Figure-6 dynamics, and both must pass Check. The cases are paper5's
// generous arrays, constrained's starved ones with their repair phase, the
// big529 profile, two parallel chains and the criticality term, each at
// three seeds. Only the timing counters may differ, and over all cases the
// bounded runs must do less timing work, or the bound decided nothing.
func TestBoundedDecisionsMatchFull(t *testing.T) {
	cases := []struct {
		name            string
		design          string
		tracks, vtracks int
		cfg             Config
	}{
		{"paper5-s1", "s1", 38, 0, Config{MovesPerCell: 1, MaxTemps: 30}},
		{"constrained-cse", "cse", 24, 3, Config{MovesPerCell: 1, MaxTemps: 30}},
		{"big529", "big529", 38, 0, Config{MovesPerCell: 1, MaxTemps: 4, RepairPasses: 1}},
		{"constrained-s1-chains2", "s1", 24, 3, Config{MovesPerCell: 1, MaxTemps: 20, Chains: 2}},
		{"constrained-s1-crit", "s1", 24, 3, Config{MovesPerCell: 1, MaxTemps: 20, CritWeight: 1}},
	}
	var boundSTA, fullSTA int64
	repairMoves := 0
	for _, tc := range cases {
		a, nl := profileInstance(t, tc.design, tc.tracks, tc.vtracks)
		for _, seed := range []int64{1, 2, 3} {
			name := fmt.Sprintf("%s seed %d", tc.name, seed)
			run := func(full bool) (*Optimizer, Result) {
				cfg := tc.cfg
				cfg.Seed = seed
				o, err := New(a, nl, cfg)
				if err != nil {
					t.Fatal(err)
				}
				o.fullEval = full
				return o.RunParallel()
			}
			fo, fr := run(true)
			bo, br := run(false)
			for _, o := range []*Optimizer{fo, bo} {
				if err := o.Check(); err != nil {
					t.Fatalf("%s (full evaluation %v): %v", name, o.fullEval, err)
				}
			}
			if fl, bl := layoutBytes(t, fo), layoutBytes(t, bo); !bytes.Equal(fl, bl) {
				t.Errorf("%s: layouts differ", name)
			}
			if fo.F.Stats != bo.F.Stats {
				t.Errorf("%s: router counts %+v, full evaluation %+v", name, bo.F.Stats, fo.F.Stats)
			}
			fr.Dynamics, br.Dynamics = nil, nil
			if !reflect.DeepEqual(fo.dynamics, bo.dynamics) || !reflect.DeepEqual(fr, br) {
				t.Errorf("%s: result %+v, full evaluation %+v", name, br, fr)
			}
			boundSTA += bo.An.Stats().STAUpdates
			fullSTA += fo.An.Stats().STAUpdates
			repairMoves += br.RepairMoves
		}
	}
	if boundSTA >= fullSTA {
		t.Errorf("bounded runs made %d net-delay updates, full evaluation %d: the bound decided nothing", boundSTA, fullSTA)
	}
	if repairMoves == 0 {
		t.Error("no case ran a repair move")
	}
	t.Logf("net-delay updates: %d bounded, %d full evaluation; %d repair moves", boundSTA, fullSTA, repairMoves)
}

func layoutBytes(t *testing.T, o *Optimizer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := layio.Write(&buf, o.P, o.Rts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/netgen"
)

// TestIncrementalStateAgreesWithRecompute is the cross-cutting consistency
// property behind the whole incremental engine: after any burst of random
// moves (accepted and rejected alike), the incrementally maintained G, D,
// missing-channel and WCD values must agree exactly with a from-scratch
// recomputation, and the full invariant checker must pass. Runs table-driven
// over architectures, designs, seeds and optimizer modes.
func TestIncrementalStateAgreesWithRecompute(t *testing.T) {
	type row struct {
		name  string
		arch  arch.Params
		comb  int
		seq   int
		cfg   Config
		seeds []int64
	}
	shifted := arch.Default(4, 14, 8)
	shifted.SegPattern = []int{3, 5, 2, 7}
	shifted.PhaseStep = 2
	narrow := arch.Default(6, 9, 10)

	rows := []row{
		{
			name:  "default-arch",
			arch:  arch.Default(5, 12, 14),
			comb:  30,
			seq:   2,
			cfg:   Config{},
			seeds: []int64{1, 12, 23},
		},
		{
			name:  "shifted-segmentation",
			arch:  shifted,
			comb:  22,
			seq:   3,
			cfg:   Config{},
			seeds: []int64{7, 18},
		},
		{
			name:  "narrow-wirability-only",
			arch:  narrow,
			comb:  26,
			seq:   2,
			cfg:   Config{DisableTiming: true},
			seeds: []int64{5, 16},
		},
		{
			name:  "criticality-weighted",
			arch:  arch.Default(5, 12, 14),
			comb:  30,
			seq:   2,
			cfg:   Config{CritWeight: 1},
			seeds: []int64{3, 21},
		},
		{
			name:  "criticality-biased-shifted",
			arch:  shifted,
			comb:  22,
			seq:   3,
			cfg:   Config{CritWeight: 0.5},
			seeds: []int64{9},
		},
	}

	const movesPerCheck = 40
	const checks = 8

	for _, tc := range rows {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			nl, err := netgen.Generate(netgen.Params{
				Name: tc.name, Inputs: 4, Outputs: 3, Seq: tc.seq, Comb: tc.comb, Seed: 51,
			})
			if err != nil {
				t.Fatal(err)
			}
			a := arch.MustNew(tc.arch)
			for _, seed := range tc.seeds {
				cfg := tc.cfg
				cfg.Seed = seed
				o, err := New(a, nl, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				rng := rand.New(rand.NewSource(seed + 100))
				for chk := 0; chk < checks; chk++ {
					for i := 0; i < movesPerCheck; i++ {
						o.Propose(rng)
						if rng.Intn(3) == 0 {
							o.Reject()
						} else {
							o.Accept()
						}
					}
					verifyAgainstRecompute(t, o, seed, chk)
					if t.Failed() {
						return
					}
				}
			}
		})
	}
}

// verifyAgainstRecompute compares the optimizer's incremental counters and
// timing view against from-scratch recomputation.
func verifyAgainstRecompute(t *testing.T, o *Optimizer, seed int64, chk int) {
	t.Helper()

	// Bounding-box cache: every cached span must equal a from-scratch pin
	// scan after any mixture of accepted and rejected moves (rejections roll
	// back via Swap/SetPinmap, so they exercise the invalidation paths too).
	if err := o.P.ValidateNetBoxes(); err != nil {
		t.Errorf("seed %d check %d: %v", seed, chk, err)
		return
	}

	// Route counters: recountGD rebuilds g/d/dc by scanning every route.
	g, d, dc := o.g, o.d, o.dc
	o.recountGD()
	if g != o.g || d != o.d || dc != o.dc {
		t.Errorf("seed %d check %d: incremental counters (G=%d D=%d dc=%d) != recount (G=%d D=%d dc=%d)",
			seed, chk, g, d, dc, o.g, o.d, o.dc)
		return
	}

	// Timing: a full RefreshTiming from the current routes must reproduce the
	// incrementally maintained WCD (and, being a rebuild of the same inputs,
	// leave the cost unchanged). In wirability-only mode the timing view is
	// deliberately not maintained move-to-move, so there is nothing to
	// cross-check.
	if o.timingOn() {
		wcd, cost := o.WCD(), o.Cost()
		if err := o.RefreshTiming(); err != nil {
			t.Errorf("seed %d check %d: RefreshTiming: %v", seed, chk, err)
			return
		}
		if math.Abs(o.WCD()-wcd) > 1e-6 {
			t.Errorf("seed %d check %d: incremental WCD %v != from-scratch %v", seed, chk, wcd, o.WCD())
			return
		}
		if math.Abs(o.Cost()-cost) > 1e-9 {
			t.Errorf("seed %d check %d: cost drifted across refresh: %v -> %v", seed, chk, cost, o.Cost())
			return
		}
	}

	// Full cross-structure invariant check (placement legality, fabric
	// ownership vs routes, route geometry vs pins, timing cache vs rebuild).
	if err := o.Check(); err != nil {
		t.Errorf("seed %d check %d: %v", seed, chk, err)
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/netlist"
)

// TestMoveAllocFree asserts the absolute steady-state bound the hot-path work
// targets: proposing and resolving a move — the full rip-up, incremental
// global + detailed reroute, and timing-propagation cascade — performs ZERO
// heap allocations once every scratch buffer has grown to capacity.
//
// The assertion is made airtight by a replay trick: Reject restores the
// optimizer state exactly (pinned by TestMoveUndoExactness), so a
// propose+reject cycle leaves the state where it started and the move
// sequence depends only on the RNG stream. Warming up with seed S for more
// iterations than AllocsPerRun will perform (runs + 1 internal warm-up call)
// and then measuring with a fresh RNG at the same seed S replays the exact
// same moves — every slice growth already happened, so any remaining
// allocation is a genuine per-move leak, not first-touch capacity growth.
//
// The bounded cases pass Propose a rejects test that answers true for every
// finite bound (each move is rejected at its path bound, before the full
// timing update) or false for every bound (each move is bounded, then
// evaluated in full).
func TestMoveAllocFree(t *testing.T) {
	a, nl := smallDesign(t)
	rejectAtBound := func(lb float64) bool { return lb > math.Inf(-1) }
	acceptAtBound := func(float64) bool { return false }
	for _, tc := range []struct {
		name    string
		cfg     Config
		rejects func(lb float64) bool
	}{
		{"timing-on", Config{Seed: 3}, nil},
		{"wirability-only", Config{Seed: 3, DisableTiming: true}, nil},
		{"crit-on", Config{Seed: 3, CritWeight: 1}, nil},
		{"bounded-rejects", Config{Seed: 3}, rejectAtBound},
		{"bounded-evaluates", Config{Seed: 3}, acceptAtBound},
		{"bounded-crit-rejects", Config{Seed: 3, CritWeight: 1}, rejectAtBound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := New(a, nl, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			const seed, runs = 17, 300
			warm := rand.New(rand.NewSource(seed))
			for i := 0; i < runs+1; i++ {
				o.Propose(warm, tc.rejects)
				o.Reject()
			}
			rng := rand.New(rand.NewSource(seed))
			allocs := testing.AllocsPerRun(runs, func() {
				o.Propose(rng, tc.rejects)
				o.Reject()
			})
			if allocs != 0 {
				t.Errorf("move path allocates: %.4f allocs/move, want exactly 0", allocs)
			}
		})
	}
}

// TestAcceptAllocFree covers the accept side of the protocol: a long mixed
// accept/reject burst after warm-up must average out to zero allocations per
// move. Accepts mutate state, so exact replay is impossible; instead the
// warm-up burst is long and uses the same move policy, making any scratch
// growth during measurement a real regression. The starved arrays keep many
// nets listed, so Accept files wake-index entries on most moves. The bounded
// runs decide by the same rule at the move bound, so their accepts re-trace
// the bound's critical path whenever it stops being critical.
func TestAcceptAllocFree(t *testing.T) {
	type design struct {
		name string
		a    *arch.Arch
		nl   *netlist.Netlist
	}
	var designs []design
	a, nl := smallDesign(t)
	designs = append(designs, design{"small", a, nl})
	for _, vt := range []int{1, 2} {
		a, nl := starvedDesign(t, vt)
		designs = append(designs, design{fmt.Sprintf("starved-vtracks-%d", vt), a, nl})
	}
	greedy := func(lb float64) bool { return lb > 0 }
	for _, d := range designs {
		for _, rejects := range []func(float64) bool{nil, greedy} {
			name := d.name
			if rejects != nil {
				name += "-bounded"
			}
			t.Run(name, func(t *testing.T) { acceptAllocFree(t, d.a, d.nl, rejects) })
		}
	}
}

func acceptAllocFree(t *testing.T, a *arch.Arch, nl *netlist.Netlist, rejects func(float64) bool) {
	o, err := New(a, nl, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	step := func() {
		if o.Propose(rng, rejects) <= 0 {
			o.Accept()
		} else {
			o.Reject()
		}
	}
	for i := 0; i < 4000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("accept/reject mix allocates: %.4f allocs/move, want exactly 0", allocs)
	}
}

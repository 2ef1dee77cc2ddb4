package core

import (
	"fmt"
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
func TestMoveAllocFree(t *testing.T) {
	a, nl := smallDesign(t)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"timing-on", Config{Seed: 3}},
		{"wirability-only", Config{Seed: 3, DisableTiming: true}},
		{"crit-on", Config{Seed: 3, CritWeight: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := New(a, nl, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			const seed, runs = 17, 300
			warm := rand.New(rand.NewSource(seed))
			for i := 0; i < runs+1; i++ {
				o.Propose(warm)
				o.Reject()
			}
			rng := rand.New(rand.NewSource(seed))
			allocs := testing.AllocsPerRun(runs, func() {
				o.Propose(rng)
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
// nets listed, so Accept files wake-index entries on most moves.
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
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			o, err := New(d.a, d.nl, Config{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(23))
			step := func() {
				if o.Propose(rng) <= 0 {
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
		})
	}
}

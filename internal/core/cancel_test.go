package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestCancelUnsetBitIdentical is the zero-cost contract for the optimizer: a
// run with an open (never-fired) Cancel channel must be bit-identical to a run
// with the field unset — the hook may not consume RNG draws, change any
// decision, or alter the result in any way.
func TestCancelUnsetBitIdentical(t *testing.T) {
	a, nl := smallDesign(t)
	run := func(cancel <-chan struct{}) Result {
		o, err := New(a, nl, Config{Seed: 5, MovesPerCell: 4, MaxTemps: 10, Cancel: cancel})
		if err != nil {
			t.Fatal(err)
		}
		return o.Run()
	}
	plain := run(nil)
	open := run(make(chan struct{}))
	if plain.FinalCost != open.FinalCost || plain.G != open.G || plain.D != open.D ||
		plain.WCD != open.WCD || plain.Anneal != open.Anneal ||
		plain.RepairMoves != open.RepairMoves || plain.RepairFixed != open.RepairFixed {
		t.Errorf("open cancel channel changed the run:\n%+v\nvs\n%+v", plain, open)
	}
	if plain.Cancelled || open.Cancelled {
		t.Error("uncancelled run reported Cancelled")
	}
}

// TestCancelAddsNoMoveAllocations pins that the cancellation hook lives
// entirely outside the per-move path: proposing and resolving moves with an
// armed (open) cancel channel allocates no more than without one.
func TestCancelAddsNoMoveAllocations(t *testing.T) {
	a, nl := smallDesign(t)
	build := func(cancel <-chan struct{}) *Optimizer {
		o, err := New(a, nl, Config{Seed: 11, MovesPerCell: 4, MaxTemps: 8, Cancel: cancel})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	measure := func(o *Optimizer) float64 {
		rng := rand.New(rand.NewSource(99))
		return testing.AllocsPerRun(2000, func() {
			if o.Propose(rng, nil) <= 0 {
				o.Accept()
			} else {
				o.Reject()
			}
		})
	}
	unset := measure(build(nil))
	armed := measure(build(make(chan struct{})))
	if armed > unset {
		t.Errorf("cancel hook added per-move allocations: %.3f armed vs %.3f unset", armed, unset)
	}
}

// TestCancelStopsSerialRun cancels a serial run from the temperature callback
// and checks it stops at the boundary, skips repair, and flags the result.
func TestCancelStopsSerialRun(t *testing.T) {
	a, nl := smallDesign(t)
	cancel := make(chan struct{})
	cancelled := false
	o, err := New(a, nl, Config{Seed: 3, MovesPerCell: 4, MaxTemps: 200, Cancel: cancel,
		Metrics: tempTrigger(func(step int) {
			if step == 3 && !cancelled {
				cancelled = true
				close(cancel)
			}
		})})
	if err != nil {
		t.Fatal(err)
	}
	res := o.Run()
	if !res.Cancelled {
		t.Error("Result.Cancelled not set")
	}
	if res.Anneal.Temps != 3 {
		t.Errorf("stopped after %d temps, want 3", res.Anneal.Temps)
	}
	if res.RepairMoves != 0 {
		t.Errorf("cancelled run still ran %d repair moves", res.RepairMoves)
	}
	// The state left behind is the consistent last-temperature state.
	if err := o.Check(); err != nil {
		t.Errorf("post-cancel state inconsistent: %v", err)
	}
}

// TestCancelStopsParallelRun cancels a portfolio run mid-flight and checks
// prompt, flagged termination with a consistent champion state.
func TestCancelStopsParallelRun(t *testing.T) {
	a, nl := smallDesign(t)
	cancel := make(chan struct{})
	type out struct {
		o   *Optimizer
		res Result
	}
	done := make(chan out, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	o, err := New(a, nl, Config{Seed: 7, MovesPerCell: 8, MaxTemps: 10000,
		Chains: 3, Cancel: cancel})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		champ, res := o.RunParallel()
		done <- out{champ, res}
	}()
	time.Sleep(30 * time.Millisecond)
	close(cancel)
	select {
	case r := <-done:
		if !r.res.Cancelled {
			t.Error("parallel Result.Cancelled not set")
		}
		if err := r.o.Check(); err != nil {
			t.Errorf("post-cancel champion state inconsistent: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("parallel run did not stop within 30s of cancellation")
	}
}

// tempTrigger adapts a step callback into a metrics.Collector so tests can
// fire cancellation from inside the run at an exact temperature boundary.
type tempTrigger func(step int)

func (f tempTrigger) RecordTemp(r metrics.TempRecord) { f(r.Step) }
func (f tempTrigger) RecordPhase(metrics.PhaseRecord) {}
func (f tempTrigger) RecordChain(metrics.ChainRecord) {}

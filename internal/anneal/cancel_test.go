package anneal

import (
	"runtime"
	"testing"
	"time"
)

// TestCancelUnsetIsFree runs the same seed with Cancel nil and with an open
// (never-fired) channel and requires bit-identical trajectories: the hook must
// not consume RNG draws or change any decision.
func TestCancelUnsetIsFree(t *testing.T) {
	run := func(cancel <-chan struct{}) Result {
		tr := newTour(16, 7)
		return Run(tr, Config{Seed: 42, MovesPerTemp: 200, MaxTemps: 60, Cancel: cancel}, nil)
	}
	plain := run(nil)
	open := run(make(chan struct{}))
	if plain != open {
		t.Errorf("open cancel channel changed the run: %+v vs %+v", plain, open)
	}
	if plain.Cancelled || open.Cancelled {
		t.Error("uncancelled run reported Cancelled")
	}
}

// TestCancelStopsAtTemperatureBoundary closes the channel mid-run from the
// temperature callback and checks the chain stops before the next temperature
// with the flag set.
func TestCancelStopsAtTemperatureBoundary(t *testing.T) {
	cancel := make(chan struct{})
	tr := newTour(16, 3)
	steps := 0
	res := Run(tr, Config{Seed: 1, MovesPerTemp: 200, MaxTemps: 500, Cancel: cancel}, func(s TempStats) {
		steps++
		if s.Step == 5 {
			close(cancel)
		}
	})
	if !res.Cancelled {
		t.Error("Result.Cancelled not set")
	}
	if res.Temps != 5 {
		t.Errorf("stopped after %d temps, want exactly 5 (the boundary after the close)", res.Temps)
	}
	if steps != 6 { // warmup + 5 temperatures
		t.Errorf("%d temperature callbacks, want 6", steps)
	}
}

// TestCancelPreCancelledRunsNothing starts with the channel already closed:
// the chain must not even run the warmup walk.
func TestCancelPreCancelledRunsNothing(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	tr := newTour(16, 3)
	start := tr.Cost()
	res := Run(tr, Config{Seed: 1, MovesPerTemp: 200, MaxTemps: 500, Cancel: cancel}, nil)
	if !res.Cancelled {
		t.Error("Result.Cancelled not set")
	}
	if res.TotalMoves != 0 || res.Temps != 0 {
		t.Errorf("pre-cancelled run did work: %d moves, %d temps", res.TotalMoves, res.Temps)
	}
	if tr.Cost() != start {
		t.Errorf("pre-cancelled run perturbed the problem: cost %v -> %v", start, tr.Cost())
	}
}

// TestCancelParallelStopsAllChains cancels a portfolio run mid-flight and
// checks every chain stops promptly and the result is flagged.
func TestCancelParallelStopsAllChains(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cancel := make(chan struct{})
	done := make(chan ParallelResult, 1)
	go func() {
		tr := newForkableTour(24, 5)
		done <- RunParallel(tr, ParallelConfig{
			Config: Config{Seed: 9, MovesPerTemp: 400, MaxTemps: 100000, FrozenTemps: 100000, Cancel: cancel},
			Chains: 3,
		}, nil)
	}()
	time.Sleep(20 * time.Millisecond)
	close(cancel)
	select {
	case res := <-done:
		if !res.Cancelled {
			t.Error("ParallelResult not flagged Cancelled")
		}
		if res.Result.Temps >= 100000 {
			t.Error("champion chain ran to the temperature cap despite cancel")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parallel run did not stop within 10s of cancellation")
	}
}

// TestCancelParallelUnsetMatchesBaseline pins that threading an open cancel
// channel through the portfolio engine leaves the deterministic outcome
// untouched.
func TestCancelParallelUnsetMatchesBaseline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	run := func(cancel <-chan struct{}) ParallelResult {
		tr := newForkableTour(16, 7)
		return RunParallel(tr, ParallelConfig{
			Config: Config{Seed: 21, MovesPerTemp: 150, MaxTemps: 40, Cancel: cancel},
			Chains: 3,
		}, nil)
	}
	a, b := run(nil), run(make(chan struct{}))
	if a.Result != b.Result || a.Champion != b.Champion || a.Restarts != b.Restarts {
		t.Errorf("open cancel channel changed the portfolio outcome:\n%+v\nvs\n%+v", a.Result, b.Result)
	}
}

// Parallel portfolio annealing: K independent chains advance concurrently on
// a worker pool and exchange state only at synchronization barriers, where
// losing chains restart from a clone of the current champion (portfolio +
// elite-migration). Because chains interact exclusively at the barriers and
// the champion is picked by the problem's own rank (Forkable.Better) with
// the chain index as the tie-break, the outcome for a fixed (seed, K) is
// deterministic regardless of GOMAXPROCS or goroutine scheduling.
package anneal

import (
	"runtime"
	"sync"
	"time"
)

// Forkable is a Problem whose full state can be deep-copied and ranked,
// enabling parallel-chain annealing. CloneProblem must return an independent
// copy: moves applied to the clone must never affect the original (and vice
// versa), and the returned Problem must itself be Forkable so champions can
// seed further restarts.
//
// Better reports whether the receiver's state ranks strictly better than q's,
// a state of the same problem. The champion and every migration follow this
// order, never Cost: a problem that renormalizes its cost as it anneals (as
// the paper's §3.2 weights do) gives each chain its own scale, so two chains'
// costs need not compare.
type Forkable interface {
	Problem
	CloneProblem() Problem
	Better(q Problem) bool
}

// syncTemps is the number of temperature steps each chain runs between
// synchronization barriers.
const syncTemps = 8

// ParallelConfig tunes the portfolio engine. The embedded Config applies to
// every chain; each chain's seed is derived deterministically from Seed and
// the chain index (chain 0 uses Seed itself, so a 1-chain run is bit-identical
// to Run).
type ParallelConfig struct {
	Config

	// Chains is the number of independent annealing chains K (default 1).
	// Up to GOMAXPROCS of them are stepped concurrently.
	Chains int
}

// ParallelResult reports a portfolio run.
type ParallelResult struct {
	Result // the champion chain's annealing result

	// Champion is the index of the winning chain by Forkable.Better (ties
	// broken toward the lowest index).
	Champion int

	// Restarts counts loser restarts performed at synchronization barriers.
	Restarts int

	// Best is the champion chain's final problem state. With Chains <= 1 it
	// is the problem passed to RunParallel; otherwise it may be a clone.
	Best Problem

	// PerChain holds every chain's individual result, indexed by chain.
	PerChain []Result

	// ChampionSwitches counts barriers at which the champion index changed
	// (chain 0 is the incumbent before the first barrier).
	ChampionSwitches int

	// Wall is the wall clock spent stepping each chain (reporting only:
	// scheduling never affects results), indexed by chain.
	Wall []time.Duration

	// Adoptions counts, per chain, how many times the chain restarted from a
	// clone of the champion at a synchronization barrier.
	Adoptions []int
}

// DeriveSeed returns the deterministic seed for the given chain index:
// chain 0 keeps the base seed, later chains stride by a 64-bit golden-ratio
// constant so streams are decorrelated but reproducible.
func DeriveSeed(base int64, chain int) int64 {
	const stride = int64(-7046029254386353131) // 0x9E3779B97F4A7C15 as int64
	return base + int64(chain)*stride
}

// RunParallel anneals K chains of the problem and returns the champion. The
// first chain anneals p itself; the others anneal clones. onTemp, if non-nil,
// is called after every temperature of every chain with the chain index and
// that chain's problem state; calls for one chain arrive in order, but calls
// for different chains may be concurrent, so the callback must only touch the
// chain's own state.
func RunParallel(p Forkable, cfg ParallelConfig, onTemp func(chain int, p Problem, s TempStats)) ParallelResult {
	k := cfg.Chains
	if k < 1 {
		k = 1
	}
	workers := min(runtime.GOMAXPROCS(0), k)

	chains := make([]*Chain, k)
	for i := 0; i < k; i++ {
		prob := Problem(p)
		if i > 0 {
			prob = p.CloneProblem()
		}
		ccfg := cfg.Config
		ccfg.Seed = DeriveSeed(cfg.Seed, i)
		var hook func(TempStats)
		if onTemp != nil {
			i := i
			hook = func(s TempStats) { onTemp(i, chains[i].p, s) }
		}
		chains[i] = NewChain(prob, ccfg, hook)
	}

	restarts := 0
	switches := 0
	incumbent := 0
	for anyLive(chains) {
		// Cancellation is polled at the synchronization barrier (and by every
		// chain at its own temperature boundaries, so a cancel mid-round stops
		// the chains before the barrier is even reached).
		if cancelled(cfg.Cancel) {
			break
		}
		runRound(chains, workers)

		// Championship and elite migration happen serially between rounds, so
		// they are scheduling-independent.
		champ := champion(chains)
		if champ != incumbent {
			switches++
			incumbent = champ
		}
		best := chains[champ].p.(Forkable)
		for i, c := range chains {
			if i == champ || c.step >= c.cfg.MaxTemps {
				continue
			}
			if best.Better(c.p) {
				c.adopt(best.CloneProblem())
				restarts++
			}
		}
	}

	champ := champion(chains)
	if champ != incumbent {
		switches++
	}
	res := ParallelResult{
		Result:           chains[champ].Result(),
		Champion:         champ,
		Restarts:         restarts,
		Best:             chains[champ].p,
		PerChain:         make([]Result, k),
		ChampionSwitches: switches,
		Wall:             make([]time.Duration, k),
		Adoptions:        make([]int, k),
	}
	for i := range chains {
		res.PerChain[i] = chains[i].Result()
		res.Wall[i] = chains[i].wall
		res.Adoptions[i] = chains[i].adoptions
		if chains[i].stopped {
			res.Result.Cancelled = true
		}
	}
	if cancelled(cfg.Cancel) {
		res.Result.Cancelled = true
	}
	return res
}

// anyLive reports whether at least one chain still has work.
func anyLive(chains []*Chain) bool {
	for _, c := range chains {
		if !c.Done() {
			return true
		}
	}
	return false
}

// champion returns the index of the best chain by Forkable.Better; ties go
// to the lowest index, making the selection deterministic.
func champion(chains []*Chain) int {
	best := 0
	for i := 1; i < len(chains); i++ {
		if chains[i].p.(Forkable).Better(chains[best].p) {
			best = i
		}
	}
	return best
}

// runRound advances every live chain by up to syncTemps temperature steps on
// a pool of workers. Chains are fully independent between barriers, so the
// assignment of chains to workers cannot influence any chain's trajectory.
func runRound(chains []*Chain, workers int) {
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				c := chains[i]
				for t := 0; t < syncTemps && c.Step(); t++ {
				}
			}
		}()
	}
	for i := range chains {
		if !chains[i].Done() {
			idx <- i
		}
	}
	close(idx)
	wg.Wait()
}

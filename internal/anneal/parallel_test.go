package anneal

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// forkableTour wraps tour with deep-copy support so it can drive the
// portfolio engine in tests.
type forkableTour struct {
	tour
}

func newForkableTour(n int, seed int64) *forkableTour {
	return &forkableTour{tour: *newTour(n, seed)}
}

func (t *forkableTour) CloneProblem() Problem {
	c := &forkableTour{tour: t.tour}
	c.pts = append([][2]float64(nil), t.pts...)
	c.perm = append([]int(nil), t.perm...)
	return c
}

// Better ranks tours by length, so rank and cost agree.
func (t *forkableTour) Better(q Problem) bool { return t.cost < q.Cost() }

// tracingTour records its cost after every engine decision, so two runs can
// be compared move by move rather than only at the end.
type tracingTour struct {
	forkableTour
	trace []float64
}

func (t *tracingTour) Accept() {
	t.forkableTour.Accept()
	t.trace = append(t.trace, t.cost)
}

func (t *tracingTour) Reject() {
	t.forkableTour.Reject()
	t.trace = append(t.trace, t.cost)
}

// Driving a Chain step by step must be bit-identical to Run: same move
// sequence, same rng stream, same result fields.
func TestChainMatchesRun(t *testing.T) {
	cfg := Config{Seed: 21, MovesPerTemp: 150, MaxTemps: 50}

	a := &tracingTour{forkableTour: *newForkableTour(18, 5)}
	ra := Run(a, cfg, nil)

	b := &tracingTour{forkableTour: *newForkableTour(18, 5)}
	c := NewChain(b, cfg, nil)
	steps := 0
	for c.Step() {
		steps++
	}
	rb := c.Result()

	if ra != rb {
		t.Errorf("results diverged: Run=%+v Chain=%+v", ra, rb)
	}
	if len(a.trace) != len(b.trace) {
		t.Fatalf("move counts diverged: %d vs %d", len(a.trace), len(b.trace))
	}
	for i := range a.trace {
		if a.trace[i] != b.trace[i] {
			t.Fatalf("cost trajectory diverged at move %d: %v vs %v", i, a.trace[i], b.trace[i])
		}
	}
	// Warmup plus rb.Temps temperature steps.
	if steps != rb.Temps+1 {
		t.Errorf("Step called %d times for %d temps", steps, rb.Temps)
	}
	if !c.Done() || c.Step() {
		t.Error("finished chain must stay done")
	}
}

// A 1-chain portfolio is exactly the serial engine on the same problem
// value: chain 0 keeps the base seed and the problem is annealed in place.
func TestRunParallelSingleChainMatchesRun(t *testing.T) {
	cfg := Config{Seed: 42, MovesPerTemp: 200, MaxTemps: 60}

	serial := newForkableTour(16, 7)
	rs := Run(serial, cfg, nil)

	par := newForkableTour(16, 7)
	rp := RunParallel(par, ParallelConfig{Config: cfg, Chains: 1}, nil)

	if rs != rp.Result {
		t.Errorf("1-chain portfolio diverged from serial: %+v vs %+v", rs, rp.Result)
	}
	if rp.Champion != 0 || rp.Restarts != 0 {
		t.Errorf("1-chain run reported champion %d, %d restarts", rp.Champion, rp.Restarts)
	}
	if rp.Best != Problem(par) {
		t.Error("1-chain run must anneal the given problem in place")
	}
	if len(rp.PerChain) != 1 || rp.PerChain[0] != rs {
		t.Errorf("PerChain = %+v", rp.PerChain)
	}
}

// The worker count, which follows GOMAXPROCS, is pure scheduling: a K-chain
// run must produce identical results for any worker count.
func TestRunParallelWorkerCountInvariant(t *testing.T) {
	cfg := ParallelConfig{
		Config: Config{Seed: 11, MovesPerTemp: 120, MaxTemps: 40},
		Chains: 5,
	}
	run := func(procs int) ParallelResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return RunParallel(newForkableTour(20, 3), cfg, nil)
	}
	ref := run(1)
	for _, p := range []int{2, 5, 16} {
		got := run(p)
		if got.Result != ref.Result || got.Champion != ref.Champion || got.Restarts != ref.Restarts {
			t.Errorf("GOMAXPROCS=%d diverged: %+v vs %+v (champion %d vs %d, restarts %d vs %d)",
				p, got.Result, ref.Result, got.Champion, ref.Champion, got.Restarts, ref.Restarts)
		}
		for i := range ref.PerChain {
			if got.PerChain[i] != ref.PerChain[i] {
				t.Errorf("GOMAXPROCS=%d chain %d diverged: %+v vs %+v", p, i, got.PerChain[i], ref.PerChain[i])
			}
		}
	}
}

// Every onTemp callback must arrive with the right chain index and in
// per-chain step order, and the champion must hold the lowest final cost
// (the tour ranks by its cost).
func TestRunParallelCallbacksAndChampion(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := ParallelConfig{
		Config: Config{Seed: 9, MovesPerTemp: 100, MaxTemps: 30},
		Chains: 3,
	}
	lastStep := make([]int, cfg.Chains)
	for i := range lastStep {
		lastStep[i] = -1
	}
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	res := RunParallel(newForkableTour(14, 2), cfg, func(chain int, p Problem, s TempStats) {
		<-mu
		defer func() { mu <- struct{}{} }()
		if chain < 0 || chain >= cfg.Chains {
			t.Errorf("bad chain index %d", chain)
		}
		if p == nil {
			t.Error("nil problem in callback")
		}
		if s.Step <= lastStep[chain] {
			t.Errorf("chain %d steps out of order: %d after %d", chain, s.Step, lastStep[chain])
		}
		lastStep[chain] = s.Step
	})
	for i, r := range res.PerChain {
		if res.Result.FinalCost > r.FinalCost {
			t.Errorf("champion (%v) worse than chain %d (%v)", res.Result.FinalCost, i, r.FinalCost)
		}
	}
	if res.Champion < 0 || res.Champion >= cfg.Chains {
		t.Errorf("champion index %d out of range", res.Champion)
	}
}

// Elite migration: on a multimodal-enough toy, losers restart from the
// champion; the mechanism must fire and never worsen the champion's own
// trajectory cost.
func TestRunParallelMigrationRestarts(t *testing.T) {
	cfg := ParallelConfig{
		Config: Config{Seed: 30, MovesPerTemp: 80, MaxTemps: 60},
		Chains: 4,
	}
	res := RunParallel(newForkableTour(22, 8), cfg, nil)
	if res.Restarts == 0 {
		t.Error("no elite-migration restarts with 4 chains")
	}
	if res.BestCost > res.FinalCost+1e-9 {
		t.Errorf("best (%v) worse than final (%v)", res.BestCost, res.FinalCost)
	}
}

// invertedTour ranks a longer tour Better, so its rank and its cost disagree
// on every pair of different lengths. Its clones share one rankLog.
type invertedTour struct {
	forkableTour
	log *rankLog
}

// rankLog holds each chain's cost after its latest temperature, which is its
// state at the next barrier, and checks every migration against it.
type rankLog struct {
	mu         sync.Mutex
	last       []float64
	stepped    bool // a temperature has run: later clones are migrations
	migrations int
	wrong      []float64 // the cost of each migration source that was not the longest tour
}

func (t *invertedTour) Better(q Problem) bool { return t.cost > q.Cost() }

func (t *invertedTour) CloneProblem() Problem {
	l := t.log
	l.mu.Lock()
	if l.stepped {
		l.migrations++
		if t.cost != slices.Max(l.last) {
			l.wrong = append(l.wrong, t.cost)
		}
	}
	l.mu.Unlock()
	return &invertedTour{forkableTour: *t.forkableTour.CloneProblem().(*forkableTour), log: l}
}

// Barriers and the final pick follow Forkable.Better, not Cost: with a rank
// that prefers the longer tour, every migration copies the longest tour at
// its barrier and the champion is the chain that ends longest.
func TestRunParallelFollowsRank(t *testing.T) {
	const k = 4
	l := &rankLog{last: make([]float64, k)}
	p := &invertedTour{forkableTour: *newForkableTour(22, 8), log: l}
	cfg := ParallelConfig{Config: Config{Seed: 30, MovesPerTemp: 80, MaxTemps: 60}, Chains: k}
	res := RunParallel(p, cfg, func(chain int, p Problem, _ TempStats) {
		l.mu.Lock()
		l.last[chain], l.stepped = p.Cost(), true
		l.mu.Unlock()
	})
	if l.migrations == 0 || l.migrations != res.Restarts {
		t.Errorf("%d migrations logged, %d restarts reported; want the same non-zero count", l.migrations, res.Restarts)
	}
	if len(l.wrong) > 0 {
		t.Errorf("migrations copied tours of length %v, not the longest at their barrier", l.wrong)
	}
	for i, r := range res.PerChain {
		if r.FinalCost > res.FinalCost || (i < res.Champion && r.FinalCost == res.FinalCost) {
			t.Errorf("champion %d (length %v) is not the first longest: chain %d ends at %v",
				res.Champion, res.FinalCost, i, r.FinalCost)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(77, 0) != 77 {
		t.Error("chain 0 must keep the base seed")
	}
	seen := map[int64]int{}
	for c := 0; c < 64; c++ {
		s := DeriveSeed(1, c)
		if prev, dup := seen[s]; dup {
			t.Fatalf("chains %d and %d collide on seed %d", prev, c, s)
		}
		seen[s] = c
	}
	// Streams from adjacent chains must actually decorrelate.
	r0 := rand.New(rand.NewSource(DeriveSeed(1, 0)))
	r1 := rand.New(rand.NewSource(DeriveSeed(1, 1)))
	same := 0
	for i := 0; i < 100; i++ {
		if r0.Intn(1000) == r1.Intn(1000) {
			same++
		}
	}
	if same > 10 {
		t.Errorf("adjacent chain streams agree on %d/100 draws", same)
	}
}

// adopt must revive a frozen chain only while temperature budget remains.
func TestChainAdoptRevives(t *testing.T) {
	cfg := Config{Seed: 4, MovesPerTemp: 60, MaxTemps: 2000}
	c := NewChain(newForkableTour(8, 1), cfg, nil)
	for c.Step() {
	}
	if !c.Done() {
		t.Fatal("chain did not finish")
	}
	if c.Temps() >= 2000 {
		t.Fatal("chain never froze; cannot test revival")
	}
	fresh := newForkableTour(8, 99)
	c.adopt(fresh)
	if c.Done() {
		t.Error("adopt with remaining budget must revive the chain")
	}
	if c.Problem() != Problem(fresh) {
		t.Error("adopt did not install the new problem")
	}
}

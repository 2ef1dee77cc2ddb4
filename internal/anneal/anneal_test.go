package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// tour is a toy TSP on a ring of cities with known optimum: visiting them in
// angular order. A classic sanity problem for an annealer.
type tour struct {
	pts  [][2]float64
	perm []int
	cost float64
	mi   int // last move indices
	mj   int
}

func newTour(n int, seed int64) *tour {
	rng := rand.New(rand.NewSource(seed))
	t := &tour{pts: make([][2]float64, n), perm: rng.Perm(n)}
	for i := range t.pts {
		ang := 2 * math.Pi * float64(i) / float64(n)
		t.pts[i] = [2]float64{math.Cos(ang), math.Sin(ang)}
	}
	t.cost = t.fullCost()
	return t
}

func (t *tour) dist(a, b int) float64 {
	dx := t.pts[a][0] - t.pts[b][0]
	dy := t.pts[a][1] - t.pts[b][1]
	return math.Sqrt(dx*dx + dy*dy)
}

func (t *tour) fullCost() float64 {
	c := 0.0
	for i := range t.perm {
		c += t.dist(t.perm[i], t.perm[(i+1)%len(t.perm)])
	}
	return c
}

func (t *tour) Cost() float64 { return t.cost }

func (t *tour) Propose(rng *rand.Rand, _ func(float64) bool) float64 {
	n := len(t.perm)
	t.mi = rng.Intn(n)
	t.mj = rng.Intn(n)
	t.perm[t.mi], t.perm[t.mj] = t.perm[t.mj], t.perm[t.mi]
	nc := t.fullCost()
	d := nc - t.cost
	t.cost = nc
	return d
}

func (t *tour) Accept() {}

func (t *tour) Reject() {
	t.perm[t.mi], t.perm[t.mj] = t.perm[t.mj], t.perm[t.mi]
	t.cost = t.fullCost()
}

func TestAnnealImprovesTour(t *testing.T) {
	tr := newTour(24, 3)
	start := tr.Cost()
	res := Run(tr, Config{Seed: 1, MovesPerTemp: 400, MaxTemps: 200}, nil)
	optimum := 24 * 2 * math.Sin(math.Pi/24) // ring perimeter
	if res.FinalCost > start {
		t.Errorf("annealing made things worse: %v -> %v", start, res.FinalCost)
	}
	if res.FinalCost > 1.35*optimum {
		t.Errorf("final cost %.3f too far from optimum %.3f", res.FinalCost, optimum)
	}
	if res.BestCost > res.FinalCost+1e-9 {
		t.Errorf("best (%v) worse than final (%v)", res.BestCost, res.FinalCost)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	run := func() float64 {
		tr := newTour(16, 7)
		return Run(tr, Config{Seed: 42, MovesPerTemp: 200, MaxTemps: 60}, nil).FinalCost
	}
	if run() != run() {
		t.Error("same seed produced different results")
	}
	tr := newTour(16, 7)
	other := Run(tr, Config{Seed: 43, MovesPerTemp: 200, MaxTemps: 60}, nil).FinalCost
	if other == run() {
		t.Log("different seeds coincided (unlikely but not fatal)")
	}
}

func TestTemperatureMonotoneDecreasing(t *testing.T) {
	tr := newTour(16, 9)
	var temps []float64
	Run(tr, Config{Seed: 5, MovesPerTemp: 150, MaxTemps: 80}, func(s TempStats) {
		temps = append(temps, s.Temp)
	})
	if len(temps) < 5 {
		t.Fatalf("only %d temperature callbacks", len(temps))
	}
	for i := 2; i < len(temps); i++ { // step 0 and 1 share T0
		if temps[i] >= temps[i-1] {
			t.Fatalf("temperature rose at step %d: %v -> %v", i, temps[i-1], temps[i])
		}
	}
}

func TestAcceptanceCoolsDown(t *testing.T) {
	tr := newTour(20, 11)
	var first, last float64
	n := 0
	Run(tr, Config{Seed: 5, MovesPerTemp: 300, MaxTemps: 150}, func(s TempStats) {
		if s.Step == 1 {
			first = s.AcceptRatio()
		}
		last = s.AcceptRatio()
		n++
	})
	if n < 10 {
		t.Fatalf("too few temperatures: %d", n)
	}
	if first < 0.5 {
		t.Errorf("initial acceptance %.2f, want hot start", first)
	}
	if last > 0.3 {
		t.Errorf("final acceptance %.2f, want cold finish", last)
	}
}

func TestStopsWhenFrozen(t *testing.T) {
	tr := newTour(10, 13)
	res := Run(tr, Config{Seed: 2, MovesPerTemp: 150, MaxTemps: 10000}, nil)
	if res.Temps >= 10000 {
		t.Error("never froze")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.setDefaults()
	if c.MovesPerTemp <= 0 || c.MaxTemps <= 0 || c.FrozenTemps <= 0 {
		t.Errorf("defaults not applied: %+v", c)
	}
}

func TestStatsStd(t *testing.T) {
	var s stats
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.add(v)
	}
	// Sample std of this classic set is ~2.138.
	if math.Abs(s.std()-2.13808993) > 1e-6 {
		t.Errorf("std = %v", s.std())
	}
	if s.min != 2 {
		t.Errorf("min = %v", s.min)
	}
}

package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// TestReadAheadMatchesSource draws the same Int63, Intn and Float64 sequence
// through a rand.Rand over the read-ahead as through one over the plain
// source, while peeks of every depth fall between the draws, and each
// peeked acceptance value is the Float64 drawn next.
func TestReadAheadMatchesSource(t *testing.T) {
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		want := rand.New(rand.NewSource(seed))
		ra := newReadAhead(seed)
		got := rand.New(ra)
		ops := rand.New(rand.NewSource(seed + 99))
		for i := 0; i < 20000; i++ {
			switch op := ops.Intn(6); op {
			case 0:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, i, g, w)
				}
			case 1:
				n := 1 + ops.Intn(1000)
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d draw %d: Intn(%d) %d, want %d", seed, i, n, g, w)
				}
			case 2:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v, want %v", seed, i, g, w)
				}
			case 3:
				ra.peek(ops.Intn(aheadSize))
			case 4, 5:
				u, ok := ra.peekFloat64()
				if !ok {
					t.Fatalf("seed %d draw %d: peek gave up", seed, i)
				}
				if op == 5 {
					if g, w := got.Float64(), want.Float64(); g != u || w != u {
						t.Fatalf("seed %d draw %d: peeked %v, drew %v, want %v", seed, i, u, g, w)
					}
				}
			}
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 %d, want %d", seed, g, w)
		}
	}
}

// ones returns maxInt63 as its first n values, which Float64 rounds to 1 and
// draws again, and a counter after that.
type ones struct{ n, i uint64 }

func (s *ones) Uint64() uint64 {
	s.i++
	if s.i <= s.n {
		return 1<<63 - 1
	}
	return s.i << 40
}

func (s *ones) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
func (s *ones) Seed(int64)   {}

// TestReadAheadFloat64Retry peeks through Float64's retry: values that round
// to 1 are skipped as Float64 skips them, and a run of them longer than the
// ring makes the peek give up without disturbing the stream.
func TestReadAheadFloat64Retry(t *testing.T) {
	if f := float64(int64(1<<63-1)) / (1 << 63); f != 1 {
		t.Fatalf("maxInt63 converts to %v, not 1", f)
	}
	for n := uint64(0); n <= aheadSize+1; n++ {
		want := rand.New(&ones{n: n})
		ra := &readAhead{src: &ones{n: n}}
		got := rand.New(ra)
		u, ok := ra.peekFloat64()
		if ok != (n < aheadSize) {
			t.Fatalf("%d retries: peek ok %v", n, ok)
		}
		g, w := got.Float64(), want.Float64()
		if g != w || ok && u != w {
			t.Fatalf("%d retries: peeked %v (ok %v), drew %v, want %v", n, u, ok, g, w)
		}
		for i := 0; i < 3; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("%d retries, draw %d after: %d, want %d", n, i, g, w)
			}
		}
	}
}

// TestReadAheadAllocFree: the ring is a fixed array, so peeks and draws
// never allocate.
func TestReadAheadAllocFree(t *testing.T) {
	ra := newReadAhead(5)
	rng := rand.New(ra)
	allocs := testing.AllocsPerRun(1000, func() {
		ra.peekFloat64()
		ra.peek(aheadSize - 1)
		rng.Intn(100)
		rng.Float64()
		rng.Int63()
	})
	if allocs != 0 {
		t.Errorf("read-ahead allocates %.2f times per round, want 0", allocs)
	}
}

// TestRejectsMargin: whenever the read-ahead test rejects a bound lb, the
// engine's own test u < Exp(-d/T) fails for every delta d ≥ lb, including
// acceptance values within a few ulps either side of Exp(-lb/T) and deltas
// a few ulps above lb, where the margin is all that separates the two.
func TestRejectsMargin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := &Chain{ahead: &readAhead{}}
	rejected := 0
	for i := 0; i < 200000; i++ {
		c.temp = math.Exp(rng.Float64()*20 - 10)
		lb := c.temp * rng.ExpFloat64() * 3
		d := lb
		for k := rng.Intn(4); k > 0; k-- {
			d = math.Nextafter(d, math.Inf(1))
		}
		if rng.Intn(4) == 0 {
			d += rng.Float64() * c.temp
		}
		u := math.Exp(-lb / c.temp)
		toward, steps := 1.0, rng.Intn(48)-8 // u moves -8 to 39 ulps
		if steps < 0 {
			toward, steps = 0, -steps
		}
		for ; steps > 0; steps-- {
			u = math.Nextafter(u, toward)
		}
		if rng.Intn(8) == 0 {
			u = rng.Float64()
		}
		if u >= 1 {
			continue
		}
		// The ring holds u as the next Int63, which Float64 divides by 2^63.
		v := uint64(u * (1 << 63))
		if float64(v)/(1<<63) != u {
			continue
		}
		c.ahead.buf[c.ahead.head], c.ahead.n = v, 1
		if c.rejects(lb) {
			rejected++
			if u < math.Exp(-d/c.temp) {
				t.Fatalf("T %v: rejects(%v) with u %v, but delta %v accepts (Exp %v)", c.temp, lb, u, d, math.Exp(-d/c.temp))
			}
		}
	}
	if rejected < 10000 {
		t.Fatalf("only %d of 200000 draws rejected; the test does not reach the margin", rejected)
	}
	if c.rejects(0) || c.rejects(-1) || c.rejects(math.NaN()) {
		t.Error("rejects answered true for a bound that is not positive")
	}
}

// boundedTour is the tour that asks the read-ahead test with its exact delta
// as the bound and gives up on the move when the test rejects it.
type boundedTour struct {
	*tour
	decided int
}

func (b *boundedTour) Propose(rng *rand.Rand, rejects func(float64) bool) float64 {
	d := b.tour.Propose(rng, nil)
	if rejects != nil && rejects(d) {
		b.decided++
		return math.Inf(1)
	}
	return d
}

// TestBoundedProposeMatchesFull: a problem that returns +Inf for the moves
// the read-ahead test rejects anneals exactly as one that returns every
// delta: same costs, same accepted counts, same temperatures.
func TestBoundedProposeMatchesFull(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := Config{Seed: seed, MovesPerTemp: 300, MaxTemps: 120}
		var full, bounded []TempStats
		want := Run(newTour(20, seed), cfg, func(s TempStats) { full = append(full, s) })
		b := &boundedTour{tour: newTour(20, seed)}
		got := Run(b, cfg, func(s TempStats) { bounded = append(bounded, s) })
		if got != want {
			t.Errorf("seed %d: bounded %+v, full %+v", seed, got, want)
		}
		for i := range full {
			full[i].Elapsed, bounded[i].Elapsed = 0, 0
			if i >= len(bounded) || bounded[i] != full[i] {
				t.Fatalf("seed %d temperature %d differs", seed, i)
			}
		}
		t.Logf("seed %d: %d of %d rejections decided ahead", seed, b.decided, got.TotalMoves-got.Accepted)
		if b.decided == 0 {
			t.Errorf("seed %d: the read-ahead test rejected nothing", seed)
		}
	}
}

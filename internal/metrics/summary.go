package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Summary aggregates every record into run totals: move/acceptance counts,
// router and STA work, per-phase wall clock, peak throughput, and the final
// per-chain table. It is safe for concurrent use.
type Summary struct {
	mu sync.Mutex
	t  Totals // Chains in arrival order; Totals sorts a copy
}

// NewSummary returns an empty summary collector.
func NewSummary() *Summary { return &Summary{} }

// RecordTemp implements Collector.
func (s *Summary) RecordTemp(r TempRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &s.t
	t.Temps++
	t.Moves += r.Moves
	t.Accepted += r.Accepted
	t.Work.Add(r.Work)
	if mps := r.MovesPerSec(); mps > t.PeakMovesPerSec {
		t.PeakMovesPerSec = mps
	}
	if r.Step >= t.LastTemp.Step || r.Chain != t.LastTemp.Chain {
		t.LastTemp = r
	}
}

// RecordPhase implements Collector.
func (s *Summary) RecordPhase(r PhaseRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Phase < NumPhases {
		s.t.PhaseDur[r.Phase] += r.Elapsed
	}
}

// RecordChain implements Collector.
func (s *Summary) RecordChain(r ChainRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.t.Chains = append(s.t.Chains, r)
}

// Totals is a snapshot of a Summary's aggregates.
type Totals struct {
	Temps    int // temperature records seen (warmup included)
	Moves    int
	Accepted int

	Work

	PeakMovesPerSec float64 // highest single-temperature throughput
	LastTemp        TempRecord

	PhaseDur [NumPhases]time.Duration
	Chains   []ChainRecord
}

// Totals returns a consistent snapshot of the aggregates so far.
func (s *Summary) Totals() Totals {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.t
	t.Chains = append([]ChainRecord(nil), s.t.Chains...)
	sort.Slice(t.Chains, func(i, j int) bool { return t.Chains[i].Chain < t.Chains[j].Chain })
	return t
}

// WriteText prints a human-readable report of the collected statistics.
func (s *Summary) WriteText(w io.Writer) error {
	t := s.Totals()
	// Sections with no records are omitted: a flow that was never
	// temperature-instrumented (the sequential baseline) reports only its
	// phase timers rather than misleading zero counters.
	if t.Temps > 0 {
		ratio := 0.0
		if t.Moves > 0 {
			ratio = float64(t.Accepted) / float64(t.Moves)
		}
		if _, err := fmt.Fprintf(w, "anneal   %d temps, %d moves, %d accepted (%.1f%%), peak %.0f moves/s\n",
			t.Temps, t.Moves, t.Accepted, 100*ratio, t.PeakMovesPerSec); err != nil {
			return err
		}
	}
	if t.RipUps+t.GRouteAttempts+t.DRouteAttempts > 0 {
		fmt.Fprintf(w, "routing  %d rip-ups, global %d attempts (%d failed), detailed %d attempts (%d failed)\n",
			t.RipUps, t.GRouteAttempts, t.GRouteFails, t.DRouteAttempts, t.DRouteFails)
	}
	if t.STAUpdates+t.STACellsRelaxed > 0 {
		fmt.Fprintf(w, "timing   %d incremental net updates, %d cell arrivals relaxed\n",
			t.STAUpdates, t.STACellsRelaxed)
	}
	for p := Phase(0); p < NumPhases; p++ {
		if t.PhaseDur[p] > 0 {
			fmt.Fprintf(w, "phase    %-13s %v\n", p.String(), t.PhaseDur[p].Round(time.Microsecond))
		}
	}
	for _, c := range t.Chains {
		mark := " "
		if c.Champion {
			mark = "*"
		}
		fmt.Fprintf(w, "chain %s%d  %d temps, %d moves, cost %.4f, wall %v, %d adoptions\n",
			mark, c.Chain, c.Temps, c.Moves, c.FinalCost, c.Wall.Round(time.Microsecond), c.Adoptions)
	}
	return nil
}

var _ Collector = (*Summary)(nil)

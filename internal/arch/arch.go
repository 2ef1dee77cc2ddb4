// Package arch models a row-based (ACTEL-style) antifuse FPGA architecture:
// a grid of logic-module slots separated by horizontal routing channels whose
// tracks are divided into fixed segments, plus segmented vertical tracks used
// to span channels. It also carries the RC delay parameters used by the
// Elmore timing model, the pinmap palettes used by the layout state and the
// track-selection cost of detailed routing.
package arch

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Side identifies which edge of a logic module a pin is assigned to. A pin on
// the Bottom side taps the channel below the module's row; a pin on the Top
// side taps the channel above it.
type Side uint8

const (
	// Bottom places the pin on the channel below the module's row.
	Bottom Side = iota
	// Top places the pin on the channel above the module's row.
	Top
)

func (s Side) String() string {
	if s == Bottom {
		return "bottom"
	}
	return "top"
}

// Segment is one fixed horizontal routing segment on a track, covering the
// half-open column range [Start, End).
type Segment struct {
	Start int
	End   int
}

// Len returns the number of column positions the segment covers.
func (s Segment) Len() int { return s.End - s.Start }

// Contains reports whether column col lies on the segment.
func (s Segment) Contains(col int) bool { return col >= s.Start && col < s.End }

// RC holds the electrical parameters of the delay model. Resistances are in
// ohms and capacitances in picofarads, so products are directly in
// picoseconds.
type RC struct {
	RDriver   float64 // output resistance of a module driver
	RAntifuse float64 // programmed horizontal/vertical antifuse resistance
	CAntifuse float64 // antifuse junction capacitance
	RCross    float64 // programmed cross (pin-to-segment) antifuse resistance
	CCross    float64 // cross antifuse junction capacitance
	RUnit     float64 // horizontal track resistance per column unit
	CUnit     float64 // horizontal track capacitance per column unit
	RVUnit    float64 // vertical track resistance per channel crossed
	CVUnit    float64 // vertical track capacitance per channel crossed
	CPin      float64 // sink pin load capacitance
}

// DefaultRC returns delay-model constants plausible for early-1990s antifuse
// parts. Only relative delays matter for the reproduced experiments.
func DefaultRC() RC {
	return RC{
		RDriver:   600,
		RAntifuse: 550,
		CAntifuse: 0.012,
		RCross:    750,
		CCross:    0.014,
		RUnit:     14,
		CUnit:     0.045,
		RVUnit:    22,
		CVUnit:    0.080,
		CPin:      0.030,
	}
}

// Params describes an architecture instance before compilation.
type Params struct {
	Rows   int // rows of logic modules
	Cols   int // module slots per row
	Tracks int // horizontal tracks per channel

	// SegPattern is the cyclic sequence of segment lengths used to cut each
	// track. Tracks are phase-shifted against each other by PhaseStep columns
	// so that segment boundaries do not align across tracks (the non-uniform
	// segmentation the paper's timing discussion depends on).
	SegPattern []int
	PhaseStep  int

	VTracks int // vertical tracks per column
	VSpan   int // channels spanned by one vertical segment

	RC RC
}

// Default returns a parameter set with a mixed short/long segmentation
// pattern, sized for the given module grid and channel capacity.
func Default(rows, cols, tracks int) Params {
	return Params{
		Rows:       rows,
		Cols:       cols,
		Tracks:     tracks,
		SegPattern: []int{4, 9, 3, 14, 5, 7},
		PhaseStep:  3,
		VTracks:    5,
		VSpan:      3,
		RC:         DefaultRC(),
	}
}

// Arch is a compiled architecture: the parameters plus the derived
// segmentation tables shared by every channel.
type Arch struct {
	Params

	// Seg holds, for each track index, that track's segments in column order.
	// Every channel uses the same per-track segmentation.
	Seg [][]Segment

	// segAt[t][col] is the index within Seg[t] of the segment covering col.
	segAt [][]int16

	// NVSegs is the number of vertical segments on one vertical track.
	NVSegs int

	// Track classes: the tracks whose segments are identical. A track's
	// segment range over a column interval, and so its routing cost, depends
	// only on its class. classLow[c] is class c's lowest track, and classes
	// are numbered in that order; class c's tracks are the set bits of
	// classMask[c*w:(c+1)*w], w = (Tracks+63)/64 words.
	classLow  []int
	classMask []uint64

	// ClassOrder's tables: Classes() entries per column interval lo <= hi,
	// valid once the interval's ranked flag is set, and the scratch that
	// ranks them. mu serializes the ranking.
	order  []uint16
	ranked []atomic.Bool
	keys   []uint64
	mu     sync.Mutex
}

// New validates p and compiles the derived segmentation tables.
func New(p Params) (*Arch, error) {
	if p.Rows < 1 || p.Cols < 2 {
		return nil, fmt.Errorf("arch: grid %dx%d too small", p.Rows, p.Cols)
	}
	if p.Tracks < 1 || p.Tracks > maxTracks {
		return nil, fmt.Errorf("arch: %d tracks per channel, want 1 to %d", p.Tracks, maxTracks)
	}
	if len(p.SegPattern) == 0 {
		return nil, errors.New("arch: empty segmentation pattern")
	}
	for _, l := range p.SegPattern {
		if l < 1 {
			return nil, fmt.Errorf("arch: segment length %d in pattern must be >= 1", l)
		}
	}
	if p.VTracks < 1 || p.VSpan < 1 {
		return nil, errors.New("arch: vertical routing parameters must be >= 1")
	}
	a := &Arch{Params: p}
	a.Seg = make([][]Segment, p.Tracks)
	a.segAt = make([][]int16, p.Tracks)
	for t := 0; t < p.Tracks; t++ {
		segs := buildTrack(p.Cols, p.SegPattern, t*p.PhaseStep)
		a.Seg[t] = segs
		at := make([]int16, p.Cols)
		for i, s := range segs {
			for c := s.Start; c < s.End; c++ {
				at[c] = int16(i)
			}
		}
		a.segAt[t] = at
	}
	a.NVSegs = (a.Channels() + p.VSpan - 1) / p.VSpan
	a.buildClasses()
	return a, nil
}

// MustNew is New but panics on error; intended for tests and examples with
// constant parameters.
func MustNew(p Params) *Arch {
	a, err := New(p)
	if err != nil {
		panic(err)
	}
	return a
}

// buildTrack tiles pattern cyclically, phase-shifted left by phase columns,
// and returns the segments clipped to [0, cols).
func buildTrack(cols int, pattern []int, phase int) []Segment {
	total := 0
	for _, l := range pattern {
		total += l
	}
	phase %= total
	var segs []Segment
	pos := -phase
	for i := 0; pos < cols; i++ {
		l := pattern[i%len(pattern)]
		start, end := pos, pos+l
		pos = end
		if end <= 0 {
			continue
		}
		if start < 0 {
			start = 0
		}
		if end > cols {
			end = cols
		}
		if end > start {
			segs = append(segs, Segment{start, end})
		}
	}
	return segs
}

// Channels returns the number of horizontal channels: one below each row plus
// one above the top row.
func (a *Arch) Channels() int { return a.Rows + 1 }

// Slots returns the total number of module slots.
func (a *Arch) Slots() int { return a.Rows * a.Cols }

// SegIndexAt returns the index of the segment covering column col on the
// given track.
func (a *Arch) SegIndexAt(track, col int) int { return int(a.segAt[track][col]) }

// SegRange returns the inclusive range of segment indices a net spanning
// columns [lo, hi] needs on the given track.
func (a *Arch) SegRange(track, lo, hi int) (segLo, segHi int) {
	return int(a.segAt[track][lo]), int(a.segAt[track][hi])
}

// VSegRange returns the inclusive range of vertical segment indices needed to
// connect channels [chLo, chHi]. Vertical segment k covers channels
// [k*VSpan, (k+1)*VSpan).
func (a *Arch) VSegRange(chLo, chHi int) (lo, hi int) {
	return chLo / a.VSpan, chHi / a.VSpan
}

// ChannelOf returns the channel a pin taps given the module's row and the
// pin's side.
func (a *Arch) ChannelOf(row int, side Side) int {
	if side == Bottom {
		return row
	}
	return row + 1
}

// AvgSegLen returns the mean segment length of the segmentation pattern,
// used by the unrouted-net delay estimator.
func (a *Arch) AvgSegLen() float64 {
	total := 0
	for _, l := range a.SegPattern {
		total += l
	}
	return float64(total) / float64(len(a.SegPattern))
}

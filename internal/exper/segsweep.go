package exper

import (
	"repro/internal/arch"
	"repro/internal/core"
)

// SegSweepRow is one segmentation scheme's outcome in the architecture
// study: the paper's §1 tension made quantitative. "Small segment sizes are
// desirable for wirability ... However, this tends to increase the number of
// antifuses on each signal path, which is detrimental for timing. Hence,
// there is usually a mix of small and large segments."
type SegSweepRow struct {
	Scheme      string
	Pattern     []int
	FullyRouted bool
	WCD         float64 // ps (simultaneous flow, timing-driven)
	Antifuses   int     // programmed antifuses across all nets
}

// SegSchemes returns the segmentation schemes compared by the sweep.
func SegSchemes() []struct {
	Name    string
	Pattern []int
} {
	return []struct {
		Name    string
		Pattern []int
	}{
		{"short", []int{3, 4, 3, 5}},
		{"mixed", []int{4, 9, 3, 14, 5, 7}}, // the default architecture
		{"long", []int{14, 18, 12}},
	}
}

// SegmentationSweep lays out one design with the simultaneous flow under
// each segmentation scheme at a fixed, moderately tight channel capacity,
// reporting routability, delay and antifuse usage. Expected shape: short
// segments route at lower capacity but accrue antifuses and delay; long
// segments are fast but waste capacity; the mixed scheme balances both —
// which is why real parts mix sizes.
func SegmentationSweep(design string, tracks int, e Effort, seed int64) ([]SegSweepRow, error) {
	nl, err := Design(design)
	if err != nil {
		return nil, err
	}
	rows := make([]SegSweepRow, 0, 3)
	for _, sch := range SegSchemes() {
		p := archParams(nl, tracks)
		p.SegPattern = sch.Pattern
		a, err := arch.New(p)
		if err != nil {
			return nil, err
		}
		o, err := core.New(a, nl, core.Config{
			Seed:         seed,
			MovesPerCell: e.CoreMovesPerCell,
			MaxTemps:     e.CoreMaxTemps,
		})
		if err != nil {
			return nil, err
		}
		res := o.Run()
		af := 0
		for id := range o.Rts {
			af += o.Rts[id].AntifuseCount()
		}
		rows = append(rows, SegSweepRow{
			Scheme:      sch.Name,
			Pattern:     sch.Pattern,
			FullyRouted: res.FullyRouted,
			WCD:         res.WCD,
			Antifuses:   af,
		})
	}
	return rows, nil
}

package exper

import (
	"fmt"

	"repro/internal/portfolio"
)

// ResolvePortfolio replaces a matrix's preset name with the concrete matrix
// it stands for; a matrix without a preset comes back as given. A preset
// plus explicit axes, and an unknown preset, are errors. The daemon and the
// CLI both resolve through here, so a preset sweep expands identically on
// either side.
func ResolvePortfolio(m portfolio.Matrix) (portfolio.Matrix, error) {
	if m.Preset == "" {
		return m, nil
	}
	if m.Axes() {
		return m, fmt.Errorf("matrix gives both a preset %q and explicit axes", m.Preset)
	}
	switch m.Preset {
	case "seeds4":
		// Pure seed diversity at the submitted effort.
		return portfolio.Matrix{Seeds: []int64{1, 2, 3, 4}}, nil
	case "seeds8":
		return portfolio.Matrix{Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8}}, nil
	case "paper8":
		// The EXPERIMENTS.md portfolio-of-8: 2 seeds × 2 effort points
		// (FastEffort- and PaperEffort-class core knobs) × 2 router backends.
		return portfolio.Matrix{
			Seeds: []int64{1, 2},
			Efforts: []portfolio.Effort{
				{Name: "fast", MovesPerCell: 6, MaxTemps: 80},
				{Name: "deep", MovesPerCell: 12, MaxTemps: 180},
			},
			Backends: []string{"ordered", "lagrange"},
		}, nil
	}
	return m, fmt.Errorf("unknown matrix preset %q (have [paper8 seeds4 seeds8])", m.Preset)
}

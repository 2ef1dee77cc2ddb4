package exper

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/portfolio"
)

// TestResolvePortfolio tables the one preset resolver the daemon and the
// CLI share: a preset becomes its concrete matrix, explicit axes pass
// through untouched, and an unknown preset or a preset plus axes is refused.
func TestResolvePortfolio(t *testing.T) {
	axes := portfolio.Matrix{Seeds: []int64{5, 6}, Backends: []string{"lagrange"}}
	for _, tc := range []struct {
		name    string
		in      portfolio.Matrix
		want    portfolio.Matrix
		wantErr string
	}{
		{"preset", portfolio.Matrix{Preset: "seeds4"}, portfolio.Matrix{Seeds: []int64{1, 2, 3, 4}}, ""},
		{"unknown preset", portfolio.Matrix{Preset: "nope"}, portfolio.Matrix{}, `unknown matrix preset "nope"`},
		{"preset plus axes", portfolio.Matrix{Preset: "seeds4", Seeds: []int64{1}}, portfolio.Matrix{}, "both a preset"},
		{"axes only", axes, axes, ""},
	} {
		got, err := ResolvePortfolio(tc.in)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !reflect.DeepEqual(got, tc.want):
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// Every named preset resolves to a matrix that expands.
	for _, name := range []string{"paper8", "seeds4", "seeds8"} {
		m, err := ResolvePortfolio(portfolio.Matrix{Preset: name})
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if _, err := m.Expand(); err != nil {
			t.Errorf("preset %s does not expand: %v", name, err)
		}
	}
}

package timing

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/netgen"
)

// FuzzCriticalityUpdate drives the damped criticality extractor with
// fuzz-chosen delay perturbations and damping, and asserts the invariants the
// optimizer relies on: every value stays in [0,1], the extraction is
// deterministic (a second extractor fed the same history agrees exactly), and
// nothing panics on degenerate delay patterns (all-zero, huge, mixed).
func FuzzCriticalityUpdate(f *testing.F) {
	f.Add(uint8(6), []byte{0, 1, 2, 3, 255, 128, 7, 9})
	f.Add(uint8(0), []byte{})
	f.Add(uint8(9), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, dampSel uint8, data []byte) {
		nl, err := netgen.Generate(netgen.Params{Name: "f", Inputs: 4, Outputs: 3, Seq: 2, Comb: 24, Seed: 51})
		if err != nil {
			t.Skip()
		}
		an, err := NewAnalyzer(nl)
		if err != nil {
			t.Skip()
		}
		an2 := an.Clone()
		damping := float64(dampSel%10) / 10
		c := NewCriticality(an, damping)
		c2 := NewCriticality(an2, damping)

		// Consume the fuzz bytes as a stream of (net, delay-scale) updates,
		// folding an Update every few writes.
		d := make([]float64, 0, 8)
		for len(data) >= 3 {
			id := int32(binary.LittleEndian.Uint16(data)) % int32(nl.NumNets())
			scale := float64(data[2]) * 37.5 // 0 .. ~9.5k ps
			data = data[3:]
			sinks := len(nl.Nets[id].Sinks)
			if sinks == 0 {
				continue
			}
			d = d[:0]
			for i := 0; i < sinks; i++ {
				d = append(d, scale*float64(i+1))
			}
			an.Begin()
			an.SetNetDelays(id, d)
			an.Propagate()
			an.Commit()
			an2.Begin()
			an2.SetNetDelays(id, d)
			an2.Propagate()
			an2.Commit()

			c.Update()
			c2.Update()
			for i, v := range c.Values() {
				if v < 0 || v > 1 || math.IsNaN(v) {
					t.Fatalf("net %d criticality %v out of [0,1]", i, v)
				}
				if v != c2.Value(int32(i)) {
					t.Fatalf("net %d: extractors diverged %v vs %v", i, v, c2.Value(int32(i)))
				}
			}
		}
	})
}

// FuzzNetDelaysMatchGraph routes a netgen design on a fuzz-chosen array and
// requires the direct Elmore evaluator to return, for every detail-routed
// net, the graph reference's bits, and for each net's malformed copies the
// graph reference's error. The bytes choose the netgen seed, the array's
// rows and slack, its tracks, segmentation and phase step, its vertical
// tracks and span, and the wire load (1 to 2).
func FuzzNetDelaysMatchGraph(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(4), uint8(30), uint8(4), uint8(9), uint8(3), uint8(3), uint8(5), uint8(3), uint8(0))
	f.Add(int64(7), uint8(2), uint8(9), uint8(8), uint8(1), uint8(1), uint8(2), uint8(0), uint8(1), uint8(1), uint8(25))
	f.Add(int64(-3), uint8(11), uint8(0), uint8(70), uint8(13), uint8(5), uint8(7), uint8(5), uint8(2), uint8(4), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, rows, slack, tracks, seg1, seg2, seg3, phase, vtracks, vspan, load uint8) {
		nl, err := netgen.Generate(netgen.Params{Name: "f", Inputs: 4, Outputs: 3, Seq: 2, Comb: 24, Seed: seed})
		if err != nil {
			t.Skip()
		}
		r := int(rows)%8 + 1
		p := arch.Default(r, max(2, (nl.NumCells()*(11+int(slack)%10)/10+r-1)/r), int(tracks)%80+1)
		p.SegPattern = []int{int(seg1)%16 + 1, int(seg2)%16 + 1, int(seg3)%16 + 1}
		p.PhaseStep = int(phase) % 8
		p.VTracks = int(vtracks)%6 + 1
		p.VSpan = int(vspan)%5 + 1
		a, err := arch.New(p)
		if err != nil {
			t.Fatalf("clamped params rejected: %v", err)
		}
		pl, _, routes, _ := routeDesign(t, a, nl, seed)
		wireLoad := 1 + float64(load)/255
		var dc DelayCalc
		for id := range routes {
			if !routes[id].DetailDone() {
				continue
			}
			matchGraph(t, &dc, pl, int32(id), &routes[id], wireLoad)
			m := malformed(pl, int32(id), &routes[id], id)
			matchGraph(t, &dc, pl, int32(id), &m, wireLoad)
		}
	})
}

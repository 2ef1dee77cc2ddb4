package layio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/droute"
	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/seq"
)

// routedState produces a real placed-and-routed design to serialize.
func routedState(t testing.TB) (*arch.Arch, *netlist.Netlist, *core.Optimizer) {
	t.Helper()
	nl, err := netgen.Generate(netgen.Params{Name: "lt", Inputs: 4, Outputs: 3, Seq: 2, Comb: 25, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 12, 14))
	o, err := core.New(a, nl, core.Config{Seed: 3, MovesPerCell: 5, MaxTemps: 40})
	if err != nil {
		t.Fatal(err)
	}
	o.Run()
	return a, nl, o
}

// roundTrip requires Read(Write(p, routes)) to give back the placement and
// routes, each route's channel entries capped at their length, and to write
// the same bytes again. It returns the written layout.
func roundTrip(t *testing.T, a *arch.Arch, nl *netlist.Netlist, p *layout.Placement, routes []fabric.NetRoute) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, p, routes); err != nil {
		t.Fatal(err)
	}
	p2, routes2, err := Read(bytes.NewReader(buf.Bytes()), a, nl)
	if err != nil {
		t.Fatal(err)
	}
	for id := range nl.Cells {
		if p2.Loc[id] != p.Loc[id] || p2.Pm[id] != p.Pm[id] {
			t.Fatalf("cell %d placement drifted", id)
		}
	}
	for id := range routes2 {
		if !routes2[id].Equal(&routes[id]) {
			t.Fatalf("net %d route drifted", id)
		}
		if c := routes2[id].Chans; cap(c) != len(c) {
			t.Fatalf("net %d: %d channel entries with room for %d", id, len(c), cap(c))
		}
	}
	// Canonical: rewriting gives identical bytes.
	var buf2 bytes.Buffer
	if err := Write(&buf2, p2, routes2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("write(read(write(x))) != write(x)")
	}
	return buf.String()
}

func TestWriteReadRoundTrip(t *testing.T) {
	a, nl, o := routedState(t)
	roundTrip(t, a, nl, o.P, o.Rts)
	for _, b := range []droute.Backend{droute.BackendOrdered, droute.BackendNegotiated, droute.BackendLagrange} {
		t.Run(string(b), func(t *testing.T) {
			res, err := seq.Run(a, nl, seq.Config{Seed: 3, RouteBackend: b,
				Place: place.Config{Seed: 3, MovesPerCell: 5, MaxTemps: 40}})
			if err != nil {
				t.Fatal(err)
			}
			roundTrip(t, a, nl, res.P, res.Routes)
		})
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	a, nl, o := routedState(t)
	var buf bytes.Buffer
	if err := Write(&buf, o.P, o.Rts); err != nil {
		t.Fatal(err)
	}
	base := buf.String()

	mutations := []struct {
		name string
		mut  func(string) string
		want string
	}{
		{"wrong design", func(s string) string { return strings.Replace(s, "layout lt", "layout other", 1) }, "design"},
		{"wrong geometry", func(s string) string { return strings.Replace(s, "rows 5", "rows 6", 1) }, "geometry"},
		{"unknown cell", func(s string) string { return strings.Replace(s, "place g0 ", "place ghost ", 1) }, "unknown cell"},
		{"missing cell", func(s string) string {
			i := strings.Index(s, "place g0")
			j := strings.Index(s[i:], "\n")
			return s[:i] + s[i+j+1:]
		}, "unplaced"},
		{"placed twice", func(s string) string {
			return editPlace(t, s, 1, func(f, first []string) { f[1] = first[1] })
		}, "placed twice"},
		{"identical place line", func(s string) string {
			i := strings.Index(s, "place ")
			j := i + strings.Index(s[i:], "\n") + 1
			return s[:j] + s[i:j] + s[j:]
		}, "placed twice"},
		{"slot occupied", func(s string) string {
			return editPlace(t, s, 1, func(f, first []string) { f[2], f[3] = first[2], first[3] })
		}, "already occupied"},
		{"slot out of range", func(s string) string {
			return editPlace(t, s, 0, func(f, _ []string) { f[2] = "99" })
		}, "slot (99,"},
		{"pinmap out of range", func(s string) string {
			return editPlace(t, s, 0, func(f, _ []string) { f[4] = "99" })
		}, "pinmap 99 out of range"},
		{"garbage", func(s string) string { return s + "frobnicate 1 2\n" }, "unknown directive"},
		{"no header", func(s string) string {
			return strings.Replace(s, "layout lt", "# layout lt", 1)
		}, "header"},
		{"fields after unrouted", func(s string) string {
			return strings.Replace(s, " global trunk ", " unrouted trunk ", 1)
		}, "after unrouted"},
		{"signed number", func(s string) string { return strings.Replace(s, " trunk ", " trunk +", 1) }, "bad number"},
		{"channel dropped", func(s string) string { return dropLastChan(t, s) }, "its pins need"},
		{"interval misses a pin", func(s string) string { return shrinkInterval(t, s) }, "its pins need"},
	}
	for _, m := range mutations {
		_, _, err := Read(strings.NewReader(m.mut(base)), a, nl)
		if err == nil || !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: got %v, want contains %q", m.name, err, m.want)
		}
	}
}

// editPlace rewrites the k-th place line (place CELL ROW COL PINMAP) with
// edit, which also sees the fields of the first place line.
func editPlace(t testing.TB, s string, k int, edit func(f, first []string)) string {
	t.Helper()
	lines := strings.SplitAfter(s, "\n")
	var first []string
	n := 0
	for i, ln := range lines {
		f := strings.Fields(ln)
		if len(f) != 5 || f[0] != "place" {
			continue
		}
		if n == 0 {
			first = append([]string(nil), f...)
		}
		if n == k {
			edit(f, first)
			lines[i] = strings.Join(f, " ") + "\n"
			return strings.Join(lines, "")
		}
		n++
	}
	t.Fatalf("no place line %d", k)
	return ""
}

// dropLastChan removes the last channel entry of the first net with a trunk:
// its segments stay exclusive and in range, but a pin's channel is no longer
// routed.
func dropLastChan(t testing.TB, s string) string {
	t.Helper()
	i := strings.Index(s, " trunk ")
	if i < 0 {
		t.Fatal("no net has a trunk")
	}
	start := strings.LastIndex(s[:i], "\n") + 1
	end := i + strings.Index(s[i:], "\n")
	line := s[start:end]
	return s[:start] + line[:strings.LastIndex(line, " chan ")] + s[end:]
}

// shrinkInterval narrows the interval of the first single-channel net that
// spans several columns to its left end. Its segments still cover the new
// interval, which misses the net's rightmost pin.
func shrinkInterval(t testing.TB, s string) string {
	t.Helper()
	lines := strings.SplitAfter(s, "\n")
	for i, ln := range lines {
		// net NAME global chan CH LO HI TRACK SEGLO SEGHI
		f := strings.Fields(ln)
		if len(f) == 10 && f[0] == "net" && f[3] == "chan" && f[5] != f[6] {
			f[6] = f[5]
			lines[i] = strings.Join(f, " ") + "\n"
			return strings.Join(lines, "")
		}
	}
	t.Fatal("no single-channel net spans two columns")
	return ""
}

func TestReadRejectsResourceConflict(t *testing.T) {
	a, nl, o := routedState(t)
	// Move one of two detail-routed nets whose intervals overlap in a
	// channel onto the other's track. Both routes stay what their pins
	// derive, so only the double claim is wrong.
	routes := make([]fabric.NetRoute, len(o.Rts))
	for id := range o.Rts {
		routes[id] = o.Rts[id].Clone()
	}
	edited := false
search:
	for i := range routes {
		for j := range routes {
			if i == j || !routes[i].DetailDone() || !routes[j].DetailDone() {
				continue
			}
			for _, ca := range routes[i].Chans {
				for k := range routes[j].Chans {
					cb := &routes[j].Chans[k]
					if cb.Ch != ca.Ch || cb.Hi < ca.Lo || ca.Hi < cb.Lo {
						continue
					}
					cb.Track = ca.Track
					cb.SegLo, cb.SegHi = a.SegRange(ca.Track, cb.Lo, cb.Hi)
					edited = true
					break search
				}
			}
		}
	}
	if !edited {
		t.Fatal("no two routed nets overlap in a channel")
	}
	var buf bytes.Buffer
	if err := Write(&buf, o.P, routes); err != nil {
		t.Fatal(err)
	}
	_, _, err := Read(&buf, a, nl)
	if err == nil || !strings.Contains(err.Error(), "both claim") {
		t.Errorf("resource conflict: got %v, want a double claim", err)
	}
}

func TestReadPartialRoutesOK(t *testing.T) {
	// A layout with unrouted and open-channel nets must load.
	nl, err := netgen.Generate(netgen.Params{Name: "lt2", Inputs: 3, Outputs: 2, Seq: 1, Comb: 10, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	ap := arch.Default(3, 10, 2)
	ap.VTracks = 1 // too few for every multi-channel net: some stay unrouted
	a := arch.MustNew(ap)
	o, err := core.New(a, nl, core.Config{Seed: 3, MovesPerCell: 2, MaxTemps: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Rip a couple of nets to create unrouted/open states deterministically.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		o.Propose(rng, nil)
		o.Reject()
	}
	text := roundTrip(t, a, nl, o.P, o.Rts)
	if !strings.Contains(text, " unrouted\n") || !strings.Contains(text, " open") {
		t.Fatal("no unrouted net or open channel to load")
	}
	_, routes, err := Read(strings.NewReader(text), a, nl)
	if err != nil {
		t.Fatal(err)
	}
	f := fabric.New(a)
	for id := range routes {
		f.InstallRoute(int32(id), &routes[id])
	}
	if err := f.CheckConsistent(routes); err != nil {
		t.Error(err)
	}
}

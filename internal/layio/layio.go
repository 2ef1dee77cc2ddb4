// Package layio serializes finished layouts — placement, pinmaps and
// per-net segment assignments — to a line-oriented text format and loads
// them back with full validation against the architecture and netlist. It
// lets layouts be archived, diffed, and re-analyzed without re-running the
// optimizer.
//
// Format:
//
//	layout DESIGN rows R cols C tracks T
//	place CELL ROW COL PINMAP
//	net NAME unrouted
//	net NAME global [trunk COL VTRACK VLO VHI] [chan CH LO HI TRACK SEGLO SEGHI | chan CH LO HI open]...
package layio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/netlist"
)

// Write emits the layout. Cells and nets appear in index order, so output is
// canonical for a given state.
func Write(w io.Writer, p *layout.Placement, routes []fabric.NetRoute) error {
	bw := bufio.NewWriter(w)
	a := p.A
	fmt.Fprintf(bw, "layout %s rows %d cols %d tracks %d\n", p.NL.Name, a.Rows, a.Cols, a.Tracks)
	for id := range p.NL.Cells {
		loc := p.Loc[id]
		fmt.Fprintf(bw, "place %s %d %d %d\n", p.NL.Cells[id].Name, loc.Row, loc.Col, p.Pm[id])
	}
	for id := range p.NL.Nets {
		name := p.NL.Nets[id].Name
		if id >= len(routes) || !routes[id].Global {
			fmt.Fprintf(bw, "net %s unrouted\n", name)
			continue
		}
		r := &routes[id]
		fmt.Fprintf(bw, "net %s global", name)
		if r.HasTrunk {
			fmt.Fprintf(bw, " trunk %d %d %d %d", r.TrunkCol, r.TrunkTrack, r.VLo, r.VHi)
		}
		for i := range r.Chans {
			ca := &r.Chans[i]
			if ca.Routed() {
				fmt.Fprintf(bw, " chan %d %d %d %d %d %d", ca.Ch, ca.Lo, ca.Hi, ca.Track, ca.SegLo, ca.SegHi)
			} else {
				fmt.Fprintf(bw, " chan %d %d %d open", ca.Ch, ca.Lo, ca.Hi)
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Read parses a layout written by Write and validates it against the
// architecture and netlist: geometry bounds, placement legality, resource
// exclusivity (via a fresh fabric), and per-net channel coverage of the pin
// positions.
func Read(rd io.Reader, a *arch.Arch, nl *netlist.Netlist) (*layout.Placement, []fabric.NetRoute, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)

	p := layout.New(a, nl)
	placed := make([]bool, nl.NumCells())
	routes := make([]fabric.NetRoute, nl.NumNets())
	seenNet := make([]bool, nl.NumNets())

	lineNo := 0
	header := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "layout":
			if header {
				return nil, nil, fmt.Errorf("layio: line %d: duplicate header", lineNo)
			}
			header = true
			if len(f) != 8 || f[2] != "rows" || f[4] != "cols" || f[6] != "tracks" {
				return nil, nil, fmt.Errorf("layio: line %d: malformed header", lineNo)
			}
			if f[1] != nl.Name {
				return nil, nil, fmt.Errorf("layio: line %d: layout is for design %q, netlist is %q", lineNo, f[1], nl.Name)
			}
			r, _ := strconv.Atoi(f[3])
			c, _ := strconv.Atoi(f[5])
			t, _ := strconv.Atoi(f[7])
			if r != a.Rows || c != a.Cols || t != a.Tracks {
				return nil, nil, fmt.Errorf("layio: line %d: layout geometry %dx%d/%d does not match architecture %dx%d/%d",
					lineNo, r, c, t, a.Rows, a.Cols, a.Tracks)
			}
		case "place":
			if !header {
				return nil, nil, fmt.Errorf("layio: line %d: place before header", lineNo)
			}
			if len(f) != 5 {
				return nil, nil, fmt.Errorf("layio: line %d: place wants CELL ROW COL PINMAP", lineNo)
			}
			id := nl.CellID(f[1])
			if id < 0 {
				return nil, nil, fmt.Errorf("layio: line %d: unknown cell %q", lineNo, f[1])
			}
			if placed[id] {
				return nil, nil, fmt.Errorf("layio: line %d: cell %q placed twice", lineNo, f[1])
			}
			row, err1 := strconv.Atoi(f[2])
			col, err2 := strconv.Atoi(f[3])
			pm, err3 := strconv.Atoi(f[4])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, nil, fmt.Errorf("layio: line %d: bad place numbers", lineNo)
			}
			if row < 0 || row >= a.Rows || col < 0 || col >= a.Cols {
				return nil, nil, fmt.Errorf("layio: line %d: slot (%d,%d) out of range", lineNo, row, col)
			}
			if pm < 0 || pm >= arch.NumPinmaps {
				return nil, nil, fmt.Errorf("layio: line %d: pinmap %d out of range", lineNo, pm)
			}
			if p.Slot[row][col] >= 0 {
				return nil, nil, fmt.Errorf("layio: line %d: slot (%d,%d) already occupied", lineNo, row, col)
			}
			p.Slot[row][col] = id
			p.Loc[id] = layout.Loc{Row: row, Col: col}
			p.Pm[id] = uint8(pm)
			placed[id] = true
		case "net":
			if !header {
				return nil, nil, fmt.Errorf("layio: line %d: net before header", lineNo)
			}
			if len(f) < 3 {
				return nil, nil, fmt.Errorf("layio: line %d: net wants NAME STATE", lineNo)
			}
			id := nl.NetID(f[1])
			if id < 0 {
				return nil, nil, fmt.Errorf("layio: line %d: unknown net %q", lineNo, f[1])
			}
			if seenNet[id] {
				return nil, nil, fmt.Errorf("layio: line %d: net %q appears twice", lineNo, f[1])
			}
			seenNet[id] = true
			if f[2] == "unrouted" {
				continue
			}
			if f[2] != "global" {
				return nil, nil, fmt.Errorf("layio: line %d: unknown net state %q", lineNo, f[2])
			}
			r := &routes[id]
			r.Global = true
			toks := f[3:]
			for len(toks) > 0 {
				switch toks[0] {
				case "trunk":
					if len(toks) < 5 {
						return nil, nil, fmt.Errorf("layio: line %d: short trunk", lineNo)
					}
					nums, err := atoiAll(toks[1:5])
					if err != nil {
						return nil, nil, fmt.Errorf("layio: line %d: %v", lineNo, err)
					}
					r.HasTrunk = true
					r.TrunkCol, r.TrunkTrack, r.VLo, r.VHi = nums[0], nums[1], nums[2], nums[3]
					if r.TrunkCol < 0 || r.TrunkCol >= a.Cols || r.TrunkTrack < 0 || r.TrunkTrack >= a.VTracks ||
						r.VLo < 0 || r.VHi < r.VLo || r.VHi >= a.NVSegs {
						return nil, nil, fmt.Errorf("layio: line %d: trunk out of range", lineNo)
					}
					toks = toks[5:]
				case "chan":
					if len(toks) < 5 {
						return nil, nil, fmt.Errorf("layio: line %d: short chan", lineNo)
					}
					nums, err := atoiAll(toks[1:4])
					if err != nil {
						return nil, nil, fmt.Errorf("layio: line %d: %v", lineNo, err)
					}
					ca := fabric.ChanAssign{Ch: nums[0], Lo: nums[1], Hi: nums[2], Track: -1}
					if ca.Ch < 0 || ca.Ch >= a.Channels() || ca.Lo < 0 || ca.Hi < ca.Lo || ca.Hi >= a.Cols {
						return nil, nil, fmt.Errorf("layio: line %d: chan out of range", lineNo)
					}
					if toks[4] == "open" {
						r.Chans = append(r.Chans, ca)
						toks = toks[5:]
						break
					}
					if len(toks) < 7 {
						return nil, nil, fmt.Errorf("layio: line %d: short routed chan", lineNo)
					}
					nums, err = atoiAll(toks[4:7])
					if err != nil {
						return nil, nil, fmt.Errorf("layio: line %d: %v", lineNo, err)
					}
					ca.Track, ca.SegLo, ca.SegHi = nums[0], nums[1], nums[2]
					if ca.Track < 0 || ca.Track >= a.Tracks ||
						ca.SegLo < 0 || ca.SegHi < ca.SegLo || ca.SegHi >= len(a.Seg[ca.Track]) {
						return nil, nil, fmt.Errorf("layio: line %d: segment run out of range", lineNo)
					}
					segs := a.Seg[ca.Track]
					if segs[ca.SegLo].Start > ca.Lo || segs[ca.SegHi].End <= ca.Hi {
						return nil, nil, fmt.Errorf("layio: line %d: net %q segments do not cover [%d,%d]", lineNo, f[1], ca.Lo, ca.Hi)
					}
					r.Chans = append(r.Chans, ca)
					toks = toks[7:]
				default:
					return nil, nil, fmt.Errorf("layio: line %d: unknown token %q", lineNo, toks[0])
				}
			}
		default:
			return nil, nil, fmt.Errorf("layio: line %d: unknown directive %q", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("layio: read: %w", err)
	}
	if !header {
		return nil, nil, fmt.Errorf("layio: missing header")
	}
	for id, ok := range placed {
		if !ok {
			return nil, nil, fmt.Errorf("layio: cell %q unplaced", nl.Cells[id].Name)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	// Resource exclusivity: install everything into a fresh fabric. Fabric
	// panics on double allocation; convert to an error.
	f := fabric.New(a)
	if err := installAll(f, routes); err != nil {
		return nil, nil, err
	}
	if err := f.CheckConsistent(routes); err != nil {
		return nil, nil, err
	}
	return p, routes, nil
}

func installAll(f *fabric.Fabric, routes []fabric.NetRoute) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("layio: resource conflict: %v", r)
		}
	}()
	for id := range routes {
		f.InstallRoute(int32(id), &routes[id])
	}
	return nil
}

func atoiAll(toks []string) ([]int, error) {
	out := make([]int, len(toks))
	for i, t := range toks {
		v, err := strconv.Atoi(t)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", t)
		}
		out[i] = v
	}
	return out, nil
}

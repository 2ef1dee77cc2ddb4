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

	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/groute"
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
// architecture and netlist: geometry bounds, placement legality, that every
// global route is exactly the one its net's pins derive
// (groute.CheckRoute), and resource exclusivity (fabric.CheckExclusive). It
// makes one pass over the input without building a fabric: fields are split
// on ASCII whitespace and numbers parsed in place, names are looked up
// without allocating, and every route's channel entries share one array.
func Read(rd io.Reader, a *arch.Arch, nl *netlist.Netlist) (*layout.Placement, []fabric.NetRoute, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(nil, 4*1024*1024) // grows from 4 KB to the longest line
	l := newLoader(a, nl)
	for sc.Scan() {
		if err := l.line(sc.Bytes()); err != nil {
			return nil, nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("layio: read: %w", err)
	}
	if err := l.finish(); err != nil {
		return nil, nil, err
	}
	return l.p, l.routes, nil
}

// loader is the state of one Read.
type loader struct {
	a      *arch.Arch
	nl     *netlist.Netlist
	p      *layout.Placement
	routes []fabric.NetRoute
	// chans holds every route's channel entries in input order. Each route's
	// Chans is a subslice with cap == len, so appending to one never writes
	// into another's.
	chans        []fabric.ChanAssign
	placed, seen []bool // per cell, per net
	header       bool
	lineNo       int
	// Write emits cells and nets in index order, so names are first tried
	// where that order puts them: no hashing and no allocation.
	nextCell, nextNet int32
}

func newLoader(a *arch.Arch, nl *netlist.Netlist) *loader {
	// A route has one entry per channel holding a pin of its net, so this
	// is enough for every layout Read accepts.
	n := 0
	for i := range nl.Nets {
		if len(nl.Nets[i].Sinks) > 0 {
			n += min(nl.Nets[i].NumPins(), a.Channels())
		}
	}
	return &loader{
		a: a, nl: nl, p: layout.New(a, nl),
		routes: make([]fabric.NetRoute, nl.NumNets()),
		chans:  make([]fabric.ChanAssign, 0, n),
		placed: make([]bool, nl.NumCells()),
		seen:   make([]bool, nl.NumNets()),
	}
}

func (l *loader) errorf(format string, args ...any) error {
	return fmt.Errorf("layio: line %d: "+format, append([]any{l.lineNo}, args...)...)
}

// line parses one input line.
func (l *loader) line(b []byte) error {
	l.lineNo++
	f := fields(b)
	dir := f.next()
	if dir == nil || dir[0] == '#' {
		return nil
	}
	switch string(dir) {
	case "layout":
		return l.layout(&f)
	case "place":
		return l.place(&f)
	case "net":
		return l.net(&f)
	}
	return l.errorf("unknown directive %q", dir)
}

// layout parses the header: DESIGN rows R cols C tracks T.
func (l *loader) layout(f *fields) error {
	if l.header {
		return l.errorf("duplicate header")
	}
	l.header = true
	var tok [7][]byte
	for i := range tok {
		tok[i] = f.next()
	}
	r, okR := num(tok[2])
	c, okC := num(tok[4])
	t, okT := num(tok[6])
	if f.next() != nil || string(tok[1]) != "rows" || string(tok[3]) != "cols" || string(tok[5]) != "tracks" ||
		!okR || !okC || !okT {
		return l.errorf("malformed header")
	}
	if string(tok[0]) != l.nl.Name {
		return l.errorf("layout is for design %q, netlist is %q", tok[0], l.nl.Name)
	}
	a := l.a
	if r != a.Rows || c != a.Cols || t != a.Tracks {
		return l.errorf("layout geometry %dx%d/%d does not match architecture %dx%d/%d",
			r, c, t, a.Rows, a.Cols, a.Tracks)
	}
	return nil
}

// place parses CELL ROW COL PINMAP.
func (l *loader) place(f *fields) error {
	if !l.header {
		return l.errorf("place before header")
	}
	name, rowTok, colTok, pmTok := f.next(), f.next(), f.next(), f.next()
	if pmTok == nil || f.next() != nil {
		return l.errorf("place wants CELL ROW COL PINMAP")
	}
	id := l.cellID(name)
	if id < 0 {
		return l.errorf("unknown cell %q", name)
	}
	if l.placed[id] {
		return l.errorf("cell %q placed twice", name)
	}
	row, ok1 := num(rowTok)
	col, ok2 := num(colTok)
	pm, ok3 := num(pmTok)
	if !ok1 || !ok2 || !ok3 {
		return l.errorf("bad place numbers")
	}
	a, p := l.a, l.p
	if row >= a.Rows || col >= a.Cols {
		return l.errorf("slot (%d,%d) out of range", row, col)
	}
	if pm >= arch.NumPinmaps {
		return l.errorf("pinmap %d out of range", pm)
	}
	if p.Slot[row][col] >= 0 {
		return l.errorf("slot (%d,%d) already occupied", row, col)
	}
	p.Slot[row][col] = id
	p.Loc[id] = layout.Loc{Row: row, Col: col}
	p.Pm[id] = uint8(pm)
	l.placed[id] = true
	return nil
}

// net parses NAME unrouted, or NAME global followed by an optional trunk and
// the channel entries.
func (l *loader) net(f *fields) error {
	if !l.header {
		return l.errorf("net before header")
	}
	name, state := f.next(), f.next()
	if state == nil {
		return l.errorf("net wants NAME STATE")
	}
	id := l.netID(name)
	if id < 0 {
		return l.errorf("unknown net %q", name)
	}
	if l.seen[id] {
		return l.errorf("net %q appears twice", name)
	}
	l.seen[id] = true
	switch string(state) {
	case "unrouted":
		if tok := f.next(); tok != nil {
			return l.errorf("unknown token %q after unrouted", tok)
		}
		return nil
	case "global":
	default:
		return l.errorf("unknown net state %q", state)
	}
	// Ranges, coverage and exclusivity are fabric.CheckExclusive's to check,
	// and the intervals groute.CheckRoute's, once every line is read.
	r := &l.routes[id]
	r.Global = true
	start := len(l.chans)
	for tok := f.next(); tok != nil; tok = f.next() {
		switch string(tok) {
		case "trunk":
			var v [4]int
			if err := l.nums(f, v[:], "short trunk"); err != nil {
				return err
			}
			r.HasTrunk = true
			r.TrunkCol, r.TrunkTrack, r.VLo, r.VHi = v[0], v[1], v[2], v[3]
		case "chan":
			var v [6]int
			if err := l.nums(f, v[:3], "short chan"); err != nil {
				return err
			}
			ca := fabric.ChanAssign{Ch: v[0], Lo: v[1], Hi: v[2], Track: -1}
			if track := *f; string(f.next()) != "open" {
				*f = track
				if err := l.nums(f, v[3:], "short routed chan"); err != nil {
					return err
				}
				ca.Track, ca.SegLo, ca.SegHi = v[3], v[4], v[5]
			}
			l.chans = append(l.chans, ca)
		default:
			return l.errorf("unknown token %q", tok)
		}
	}
	if n := len(l.chans); n > start {
		r.Chans = l.chans[start:n:n]
	}
	return nil
}

// nums parses the next len(v) fields as numbers into v; short names the
// error when the line ends first.
func (l *loader) nums(f *fields, v []int, short string) error {
	for i := range v {
		tok := f.next()
		if tok == nil {
			return l.errorf("%s", short)
		}
		var ok bool
		if v[i], ok = num(tok); !ok {
			return l.errorf("bad number %q", tok)
		}
	}
	return nil
}

// cellID returns the named cell's id, or -1.
func (l *loader) cellID(name []byte) int32 {
	if id := l.nextCell; int(id) < len(l.nl.Cells) && string(name) == l.nl.Cells[id].Name {
		l.nextCell++
		return id
	}
	id := l.nl.CellID(string(name))
	l.nextCell = id + 1
	return id
}

// netID returns the named net's id, or -1.
func (l *loader) netID(name []byte) int32 {
	if id := l.nextNet; int(id) < len(l.nl.Nets) && string(name) == l.nl.Nets[id].Name {
		l.nextNet++
		return id
	}
	id := l.nl.NetID(string(name))
	l.nextNet = id + 1
	return id
}

// finish checks what only the whole layout shows: the header, that every
// cell is placed, and every route against its pins and the others.
func (l *loader) finish() error {
	if !l.header {
		return fmt.Errorf("layio: missing header")
	}
	for id, ok := range l.placed {
		if !ok {
			return fmt.Errorf("layio: cell %q unplaced", l.nl.Cells[id].Name)
		}
	}
	if err := l.p.Validate(); err != nil {
		return err
	}
	var scratch []fabric.ChanAssign
	for id := range l.routes {
		var err error
		if scratch, err = groute.CheckRoute(l.p, int32(id), &l.routes[id], scratch); err != nil {
			return fmt.Errorf("layio: net %q: %w", l.nl.Nets[id].Name, err)
		}
	}
	return fabric.CheckExclusive(l.a, l.routes)
}

// fields is the unread rest of a line, split on the ASCII whitespace
// strings.Fields splits on.
type fields []byte

var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// isSpace reports whether c separates fields. Every separator is at most
// ' ', so most bytes take one comparison.
func isSpace(c byte) bool { return c <= ' ' && asciiSpace[c] }

// next returns the next field, or nil at the end of the line.
func (f *fields) next() []byte {
	s := *f
	for len(s) > 0 && isSpace(s[0]) {
		s = s[1:]
	}
	for i, c := range s {
		if isSpace(c) {
			*f = s[i:]
			return s[:i]
		}
	}
	*f = nil
	if len(s) == 0 {
		return nil
	}
	return s
}

// maxNum bounds parsed numbers: far above any valid field, and low enough
// that parsing cannot overflow a 32-bit int.
const maxNum = 1 << 27

// num parses an unsigned decimal as Write prints it. A sign, any other byte,
// an empty field or a value above maxNum is not a number.
func num(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	v := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if v = v*10 + int(c-'0'); v > maxNum {
			return 0, false
		}
	}
	return v, true
}

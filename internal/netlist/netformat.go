package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The native ".net" format is a line-oriented description:
//
//	# comment
//	design NAME
//	cell NAME TYPE DELAY_PS OUTNET|- [INNET ...]
//
// TYPE is input|output|comb|seq; "-" marks a cell without an output net.
// Cells appear in definition order; nets are implicit.

// Parse reads a netlist in the named format: "net" (the native format),
// "blif" or "xnf".
func Parse(r io.Reader, format string) (*Netlist, error) {
	switch format {
	case "net":
		return ParseNet(r)
	case "blif":
		return ParseBlif(r)
	case "xnf":
		return ParseXnf(r)
	}
	return nil, fmt.Errorf("unknown netlist format %q (want net, blif or xnf)", format)
}

// ParseNet reads a netlist in the native .net format.
func ParseNet(r io.Reader) (*Netlist, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	b := NewBuilder("")
	named := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "design":
			if len(fields) != 2 {
				return nil, fmt.Errorf("net: line %d: design wants one name", lineNo)
			}
			if named {
				return nil, fmt.Errorf("net: line %d: duplicate design directive", lineNo)
			}
			b = NewBuilder(fields[1])
			named = true
		case "cell":
			if len(fields) < 5 {
				return nil, fmt.Errorf("net: line %d: cell wants NAME TYPE DELAY OUTNET [IN...]", lineNo)
			}
			name := fields[1]
			typ, err := ParseCellType(fields[2])
			if err != nil {
				return nil, fmt.Errorf("net: line %d: %v", lineNo, err)
			}
			delay, err := strconv.ParseFloat(fields[3], 64)
			if err != nil || delay < 0 {
				return nil, fmt.Errorf("net: line %d: bad delay %q", lineNo, fields[3])
			}
			out := fields[4]
			if out == "-" {
				out = ""
			}
			ins := make([]string, len(fields[5:]))
			for i, f := range fields[5:] {
				if f != "-" {
					ins[i] = f
				}
			}
			b.AddCell(name, typ, delay, out, ins...)
		default:
			return nil, fmt.Errorf("net: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("net: read: %w", err)
	}
	if !named {
		return nil, fmt.Errorf("net: missing design directive")
	}
	return b.Build()
}

// WriteNet emits the netlist in the native .net format, reparseable by
// ParseNet. Cells are written in index order so output is deterministic.
func WriteNet(w io.Writer, nl *Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %d cells, %d nets\n", len(nl.Cells), len(nl.Nets))
	fmt.Fprintf(bw, "design %s\n", nl.Name)
	for i := range nl.Cells {
		c := &nl.Cells[i]
		out := "-"
		if c.Out >= 0 {
			out = nl.Nets[c.Out].Name
		}
		fmt.Fprintf(bw, "cell %s %s %g %s", c.Name, c.Type, c.Delay, out)
		for _, in := range c.In {
			if in < 0 {
				fmt.Fprint(bw, " -")
			} else {
				fmt.Fprintf(bw, " %s", nl.Nets[in].Name)
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

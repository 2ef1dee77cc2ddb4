package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseXnf reads a subset of the Xilinx Netlist Format (XNF), the other
// widely used FPGA interchange format of the paper's era, sufficient for
// structural netlists:
//
//	LCANET, 4
//	PROG, <tool>, <version>, ...
//	EXT, <signal>, <I|O>
//	SYM, <name>, <type>[, ...]
//	PIN, <pin>, <I|O>, <signal>[, ...]
//	END
//	EOF
//
// Record and field parsing is comma-separated with arbitrary spacing;
// comments ({ ... } and lines starting with #) are ignored. Symbols of type
// DFF/FD/FDR/FDC become sequential cells (only their D input is treated as a
// data pin; C/CLK/R/CLR pins are control and ignored for layout); every
// other symbol type becomes a combinational cell. EXT records synthesize
// input/output pads. Cells get CombDelay and SeqDelay.
func ParseXnf(r io.Reader) (*Netlist, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)

	b := NewBuilder("xnf")
	type sym struct {
		name, typ string
		out       string
		ins       []string
		line      int
	}
	var (
		cur      *sym
		sawNet   bool
		lineNo   int
		exts     []struct{ sig, dir string }
		finished bool
	)
	flush := func() error {
		if cur == nil {
			return nil
		}
		seq := isSeqType(cur.typ)
		if cur.out == "" {
			return fmt.Errorf("xnf: line %d: symbol %q has no output pin", cur.line, cur.name)
		}
		if len(cur.ins) == 0 {
			return fmt.Errorf("xnf: line %d: symbol %q has no input pins", cur.line, cur.name)
		}
		if seq {
			b.Seq(cur.name, SeqDelay, cur.out, cur.ins[0])
		} else {
			b.Comb(cur.name, CombDelay, cur.out, cur.ins...)
		}
		cur = nil
		return nil
	}

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.Index(line, "{"); i >= 0 {
			if j := strings.Index(line, "}"); j > i {
				line = line[:i] + line[j+1:]
			} else {
				line = line[:i]
			}
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if finished {
			continue
		}
		fields := splitXnf(line)
		switch strings.ToUpper(fields[0]) {
		case "LCANET", "PROG", "PART", "PWR":
			sawNet = true
		case "EXT":
			if len(fields) < 3 {
				return nil, fmt.Errorf("xnf: line %d: EXT wants signal and direction", lineNo)
			}
			dir := strings.ToUpper(fields[2])
			if dir != "I" && dir != "O" {
				return nil, fmt.Errorf("xnf: line %d: EXT direction %q", lineNo, fields[2])
			}
			exts = append(exts, struct{ sig, dir string }{fields[1], dir})
		case "SYM":
			if err := flush(); err != nil {
				return nil, err
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("xnf: line %d: SYM wants name and type", lineNo)
			}
			cur = &sym{name: fields[1], typ: strings.ToUpper(fields[2]), line: lineNo}
		case "PIN":
			if cur == nil {
				return nil, fmt.Errorf("xnf: line %d: PIN outside SYM", lineNo)
			}
			if len(fields) < 4 {
				return nil, fmt.Errorf("xnf: line %d: PIN wants name, direction, signal", lineNo)
			}
			pin := strings.ToUpper(fields[1])
			dir := strings.ToUpper(fields[2])
			sig := fields[3]
			switch dir {
			case "O":
				if cur.out != "" {
					return nil, fmt.Errorf("xnf: line %d: symbol %q has two output pins", lineNo, cur.name)
				}
				cur.out = sig
			case "I":
				if isSeqType(cur.typ) && isControlPin(pin) {
					continue // clock/reset pins carry no layout connectivity here
				}
				cur.ins = append(cur.ins, sig)
			default:
				return nil, fmt.Errorf("xnf: line %d: PIN direction %q", lineNo, fields[2])
			}
		case "END":
			if err := flush(); err != nil {
				return nil, err
			}
		case "EOF":
			if err := flush(); err != nil {
				return nil, err
			}
			finished = true
		default:
			return nil, fmt.Errorf("xnf: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("xnf: read: %w", err)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if !sawNet {
		return nil, fmt.Errorf("xnf: missing LCANET/PROG header")
	}
	for _, e := range exts {
		if e.dir == "I" {
			b.Input("pi_"+e.sig, e.sig)
		} else {
			b.Output("po_"+e.sig, e.sig)
		}
	}
	return b.Build()
}

func splitXnf(line string) []string {
	raw := strings.Split(line, ",")
	out := raw[:0]
	for _, f := range raw {
		out = append(out, strings.TrimSpace(f))
	}
	return out
}

func isSeqType(t string) bool {
	switch t {
	case "DFF", "FD", "FDR", "FDC", "FDCE", "FDRE":
		return true
	}
	return false
}

func isControlPin(p string) bool {
	switch p {
	case "C", "CLK", "K", "R", "RD", "CLR", "CE", "PRE", "S":
		return true
	}
	return false
}

package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseBlif reads a subset of Berkeley BLIF sufficient for the MCNC logic
// benchmarks after technology mapping: .model/.inputs/.outputs/.names/.latch/
// .end, with backslash line continuation. Truth-table rows under .names are
// accepted and ignored (only connectivity matters to layout). Each .names
// becomes a combinational cell, each .latch a sequential cell; pads are
// synthesized for .inputs and .outputs. Cells get CombDelay and SeqDelay.
func ParseBlif(r io.Reader) (*Netlist, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)

	var (
		model    string
		inputs   []string
		outputs  []string
		ended    bool
		b        = NewBuilder("")
		lineNo   int
		pending  string // continuation accumulator
		haveBody bool
	)

	emitNames := func(tokens []string) error {
		if len(tokens) == 0 {
			return fmt.Errorf("blif: line %d: .names with no signals", lineNo)
		}
		out := tokens[len(tokens)-1]
		ins := tokens[:len(tokens)-1]
		if len(ins) == 0 {
			// Constant generator: model as a source pad so it still has a
			// placeable, routable driver.
			b.AddCell("const_"+out, Input, 0, out)
			return nil
		}
		b.Comb("g_"+out, CombDelay, out, ins...)
		return nil
	}
	emitLatch := func(tokens []string) error {
		if len(tokens) < 2 {
			return fmt.Errorf("blif: line %d: .latch wants input and output", lineNo)
		}
		in, out := tokens[0], tokens[1]
		// Optional <type> <control> [init-val] tokens are accepted and ignored.
		b.Seq("ff_"+out, SeqDelay, out, in)
		return nil
	}

	process := func(line string) error {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return nil
		}
		if !strings.HasPrefix(fields[0], ".") {
			// Truth-table row (e.g. "01- 1"): connectivity-irrelevant.
			if !haveBody {
				return fmt.Errorf("blif: line %d: unexpected token %q outside any command", lineNo, fields[0])
			}
			return nil
		}
		switch fields[0] {
		case ".model":
			if model != "" {
				return fmt.Errorf("blif: line %d: multiple .model sections are not supported", lineNo)
			}
			if len(fields) >= 2 {
				model = fields[1]
			} else {
				model = "unnamed"
			}
			b = NewBuilder(model)
		case ".inputs":
			inputs = append(inputs, fields[1:]...)
		case ".outputs":
			outputs = append(outputs, fields[1:]...)
		case ".names":
			haveBody = true
			return emitNames(fields[1:])
		case ".latch":
			haveBody = true
			return emitLatch(fields[1:])
		case ".end":
			ended = true
		case ".wire_load_slope", ".gate", ".mlatch", ".clock", ".area", ".delay":
			return fmt.Errorf("blif: line %d: unsupported construct %s", lineNo, fields[0])
		default:
			return fmt.Errorf("blif: line %d: unknown construct %s", lineNo, fields[0])
		}
		return nil
	}

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimRight(line, " \t")
		if strings.HasSuffix(line, "\\") {
			pending += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		line = pending + line
		pending = ""
		if strings.TrimSpace(line) == "" {
			continue
		}
		if ended {
			continue
		}
		if err := process(line); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("blif: read: %w", err)
	}
	if model == "" {
		return nil, fmt.Errorf("blif: missing .model")
	}
	for _, in := range inputs {
		b.Input("pi_"+in, in)
	}
	for _, out := range outputs {
		b.Output("po_"+out, out)
	}
	return b.Build()
}

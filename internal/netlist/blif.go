package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"fpgapart/internal/textparse"
)

// BLIF support: the Berkeley Logic Interchange Format subset the MCNC
// benchmark distributions use — .model/.inputs/.outputs/.names/.latch/
// .end, with single-output cover tables. Imported .names become Lut
// gates; exported gates are written as on-set covers.

// WriteBLIF serializes the netlist as BLIF.
func WriteBLIF(w io.Writer, n *Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", n.Name)
	fmt.Fprintf(bw, ".inputs %s\n", strings.Join(n.Inputs, " "))
	fmt.Fprintf(bw, ".outputs %s\n", strings.Join(n.Outputs, " "))
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Type == Dff {
			fmt.Fprintf(bw, ".latch %s %s re clk 0\n", g.Ins[0], g.Out)
			continue
		}
		fmt.Fprintf(bw, ".names %s %s\n", strings.Join(g.Ins, " "), g.Out)
		rows := 1 << uint(len(g.Ins))
		ins := make([]bool, len(g.Ins))
		for p := 0; p < rows; p++ {
			for b := range ins {
				ins[b] = p&(1<<uint(b)) != 0
			}
			if !g.Eval(ins) {
				continue
			}
			var sb strings.Builder
			for b := range ins {
				if ins[b] {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
			if len(g.Ins) > 0 {
				fmt.Fprintf(bw, "%s 1\n", sb.String())
			} else {
				fmt.Fprintln(bw, "1")
			}
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// ReadBLIF parses a BLIF model into a netlist with the default
// Limits; .names become Lut gates, .latch becomes Dff (clocking
// details are ignored).
func ReadBLIF(r io.Reader) (*Netlist, error) {
	return ReadBLIFLimits(r, Limits{})
}

// ReadBLIFLimits is ReadBLIF under explicit resource caps (see
// Limits); violations fail fast with a *textparse.ParseError wrapping
// a *textparse.LimitError. The LUT fan-in cap matters most here: a
// .names block with k inputs materializes a 2^k-entry truth table.
func ReadBLIFLimits(r io.Reader, lim Limits) (*Netlist, error) {
	lim = lim.withDefaults()
	lr := textparse.NewReader(r, "blif", lim.MaxLineBytes)
	n := &Netlist{}
	var pendingLut *Gate
	var cover []string
	fanout := make(map[string]int)

	flush := func() error {
		if pendingLut == nil {
			return nil
		}
		tt, err := coverToTT(len(pendingLut.Ins), cover)
		if err != nil {
			return fmt.Errorf("blif: .names %s: %w", pendingLut.Out, err)
		}
		pendingLut.TT = tt
		n.Gates = append(n.Gates, *pendingLut)
		pendingLut, cover = nil, nil
		return nil
	}
	admitGate := func(ins []string) error {
		if len(n.Gates) >= lim.MaxGates {
			return lr.Limit("gates", len(n.Gates)+1, lim.MaxGates)
		}
		for _, in := range ins {
			fanout[in]++
			if fanout[in] > lim.MaxFanout {
				return lr.Limit("fanout", fanout[in], lim.MaxFanout)
			}
		}
		return nil
	}

	// Logical lines may continue with trailing backslash.
	var cont string
	for lr.Scan() {
		raw := lr.Text()
		if i := strings.Index(raw, "#"); i >= 0 {
			raw = raw[:i]
		}
		raw = strings.TrimSpace(raw)
		if strings.HasSuffix(raw, "\\") {
			cont += strings.TrimSuffix(raw, "\\") + " "
			// A chain of continuation lines forms one logical line; cap
			// its total size like any other line.
			if len(cont) > lim.MaxLineBytes {
				return nil, lr.Limit("line-bytes", len(cont), lim.MaxLineBytes)
			}
			continue
		}
		line := cont + raw
		cont = ""
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case ".model":
			if err := flush(); err != nil {
				return nil, err
			}
			if len(fields) >= 2 {
				n.Name = fields[1]
			}
		case ".inputs":
			if err := flush(); err != nil {
				return nil, err
			}
			n.Inputs = append(n.Inputs, fields[1:]...)
		case ".outputs":
			if err := flush(); err != nil {
				return nil, err
			}
			n.Outputs = append(n.Outputs, fields[1:]...)
		case ".names":
			if err := flush(); err != nil {
				return nil, err
			}
			if len(fields) < 2 {
				return nil, lr.Errorf(0, ".names needs at least an output")
			}
			if len(fields)-1 > lim.MaxPins {
				return nil, lr.Limit("pins", len(fields)-1, lim.MaxPins)
			}
			if len(fields)-2 > lim.MaxLutInputs {
				return nil, lr.Limit("lut-inputs", len(fields)-2, lim.MaxLutInputs)
			}
			out := fields[len(fields)-1]
			ins := append([]string(nil), fields[1:len(fields)-1]...)
			if err := admitGate(ins); err != nil {
				return nil, err
			}
			pendingLut = &Gate{Name: "n_" + out, Type: Lut, Out: out, Ins: ins}
		case ".latch":
			if err := flush(); err != nil {
				return nil, err
			}
			if len(fields) < 3 {
				return nil, lr.Errorf(0, ".latch needs input and output (truncated record?)")
			}
			if err := admitGate(fields[1:2]); err != nil {
				return nil, err
			}
			n.Gates = append(n.Gates, Gate{Name: "l_" + fields[2], Type: Dff, Out: fields[2], Ins: []string{fields[1]}})
		case ".end":
			if err := flush(); err != nil {
				return nil, err
			}
		case ".clock", ".wire_load_slope", ".default_input_arrival":
			// Ignored directives.
		default:
			if strings.HasPrefix(fields[0], ".") {
				return nil, lr.Errorf(0, "unsupported directive %q", fields[0])
			}
			if pendingLut == nil {
				return nil, lr.Errorf(0, "cover row outside .names")
			}
			cover = append(cover, line)
		}
	}
	if err := lr.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if n.Name == "" {
		return nil, &textparse.ParseError{Format: "blif", Msg: "missing .model (empty or truncated file?)"}
	}
	if err := n.Validate(); err != nil {
		return nil, textparse.Invalid("blif", err)
	}
	return n, nil
}

// coverToTT expands an on-set cover (rows of 0/1/- plus an output
// column) into a truth table. An empty cover is constant 0; the
// standard constant-1 form is a single "1" row with no inputs. Rows
// with output 0 define the off-set instead (both styles appear in the
// wild; mixing them is rejected).
func coverToTT(nIn int, rows []string) ([]bool, error) {
	tt := make([]bool, 1<<uint(nIn))
	onSet := true
	for ri, row := range rows {
		fields := strings.Fields(row)
		var pattern, outBit string
		switch {
		case nIn == 0 && len(fields) == 1:
			pattern, outBit = "", fields[0]
		case len(fields) == 2:
			pattern, outBit = fields[0], fields[1]
		default:
			return nil, fmt.Errorf("bad cover row %q", row)
		}
		if len(pattern) != nIn {
			return nil, fmt.Errorf("cover row %q has %d columns, want %d", row, len(pattern), nIn)
		}
		isOn := outBit == "1"
		if !isOn && outBit != "0" {
			return nil, fmt.Errorf("bad output bit %q", outBit)
		}
		if ri == 0 {
			onSet = isOn
		} else if isOn != onSet {
			return nil, fmt.Errorf("mixed on-set and off-set rows")
		}
		// Expand don't-cares.
		expand(tt, pattern, 0, 0)
	}
	if !onSet {
		for i := range tt {
			tt[i] = !tt[i]
		}
	}
	return tt, nil
}

// expand marks every minterm matching the 0/1/- pattern.
func expand(tt []bool, pattern string, pos int, idx int) {
	if pos == len(pattern) {
		tt[idx] = true
		return
	}
	switch pattern[pos] {
	case '0':
		expand(tt, pattern, pos+1, idx)
	case '1':
		expand(tt, pattern, pos+1, idx|1<<uint(pos))
	default: // '-'
		expand(tt, pattern, pos+1, idx)
		expand(tt, pattern, pos+1, idx|1<<uint(pos))
	}
}

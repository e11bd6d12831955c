package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"fpgapart/internal/textparse"
)

// The text format (".gnl") is line oriented:
//
//	# comment
//	circuit adder4
//	input a0 a1 b0 b1
//	output s0 s1 cout
//	xor  s0   a0 b0
//	and  c0   a0 b0
//	dff  q1   d1
//
// Each gate line is: <type> <output-net> <input-net>...

// Write serializes the netlist.
func Write(w io.Writer, n *Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "circuit %s\n", n.Name)
	if len(n.Inputs) > 0 {
		fmt.Fprintf(bw, "input %s\n", strings.Join(n.Inputs, " "))
	}
	if len(n.Outputs) > 0 {
		fmt.Fprintf(bw, "output %s\n", strings.Join(n.Outputs, " "))
	}
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Type == Lut {
			var sb strings.Builder
			for _, v := range g.TT {
				if v {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
			fmt.Fprintf(bw, "%s %s %s @%s\n", g.Type, g.Out, strings.Join(g.Ins, " "), sb.String())
			continue
		}
		fmt.Fprintf(bw, "%s %s %s\n", g.Type, g.Out, strings.Join(g.Ins, " "))
	}
	return bw.Flush()
}

// Read parses the text format with the default Limits. Gate names are
// synthesized from the output net ("g_<out>") since the format
// identifies gates by the net they drive.
func Read(r io.Reader) (*Netlist, error) {
	return ReadLimits(r, Limits{})
}

// ReadLimits is Read under explicit resource caps: input exceeding a
// limit fails fast with a *textparse.ParseError wrapping a
// *textparse.LimitError instead of driving unbounded allocation.
// Syntax errors are *textparse.ParseError too, carrying the 1-based
// line and, where known, the column of the offending token, and so is
// a file that parses but fails validation (textparse.Invalid).
func ReadLimits(r io.Reader, lim Limits) (*Netlist, error) {
	lim = lim.withDefaults()
	lr := textparse.NewReader(r, "netlist", lim.MaxLineBytes)
	n := &Netlist{}
	sawCircuit := false
	fanout := make(map[string]int)
	for lr.Scan() {
		line := strings.TrimSpace(lr.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "circuit":
			if sawCircuit {
				return nil, lr.Errorf(0, "duplicate circuit line")
			}
			if len(fields) != 2 {
				return nil, lr.Errorf(0, "want 'circuit <name>'")
			}
			n.Name = fields[1]
			sawCircuit = true
		case "input":
			n.Inputs = append(n.Inputs, fields[1:]...)
		case "output":
			n.Outputs = append(n.Outputs, fields[1:]...)
		default:
			t, ok := ParseGateType(fields[0])
			if !ok {
				return nil, lr.Errorf(textparse.FieldCol(line, 0), "unknown gate type %q", fields[0])
			}
			if len(fields) < 3 {
				return nil, lr.Errorf(0, "gate needs an output and operands (truncated record?)")
			}
			if len(n.Gates) >= lim.MaxGates {
				return nil, lr.Limit("gates", len(n.Gates)+1, lim.MaxGates)
			}
			if len(fields)-1 > lim.MaxPins {
				return nil, lr.Limit("pins", len(fields)-1, lim.MaxPins)
			}
			g := Gate{Name: "g_" + fields[1], Type: t, Out: fields[1]}
			rest := fields[2:]
			if t == Lut {
				if len(rest) == 0 || !strings.HasPrefix(rest[len(rest)-1], "@") {
					return nil, lr.Errorf(0, "lut gate needs a trailing @<truth-table>")
				}
				bits := strings.TrimPrefix(rest[len(rest)-1], "@")
				rest = rest[:len(rest)-1]
				if len(rest) > lim.MaxLutInputs {
					return nil, lr.Limit("lut-inputs", len(rest), lim.MaxLutInputs)
				}
				g.TT = make([]bool, len(bits))
				for i, ch := range bits {
					switch ch {
					case '0':
					case '1':
						g.TT[i] = true
					default:
						return nil, lr.Errorf(textparse.FieldCol(line, len(fields)-1), "bad truth-table digit %q", ch)
					}
				}
			}
			for _, in := range rest {
				fanout[in]++
				if fanout[in] > lim.MaxFanout {
					return nil, lr.Limit("fanout", fanout[in], lim.MaxFanout)
				}
			}
			g.Ins = append([]string(nil), rest...)
			n.Gates = append(n.Gates, g)
		}
	}
	if err := lr.Err(); err != nil {
		return nil, err
	}
	if !sawCircuit {
		return nil, &textparse.ParseError{Format: "netlist", Msg: "missing 'circuit' line (empty or truncated file?)"}
	}
	if err := n.Validate(); err != nil {
		return nil, textparse.Invalid("netlist", err)
	}
	return n, nil
}

package hypergraph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fpgapart/internal/textparse"
)

// The mapped-circuit text format (".clb") is line oriented:
//
//	# comment
//	circuit s5378
//	input pi0 pi1
//	output w12 w99
//	cell u0 area=1 dff=1 in=pi0,pi1 out=w0,w1 dep=11;01
//
// Each cell line carries its input nets, output nets and the adjacency
// matrix (one row of 0/1 per output, rows separated by ';').

// Write serializes the graph.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "circuit %s\n", g.Name)
	var ins, outs []string
	for i := range g.Nets {
		switch g.Nets[i].Ext {
		case ExtIn:
			ins = append(ins, g.Nets[i].Name)
		case ExtOut:
			outs = append(outs, g.Nets[i].Name)
		}
	}
	if len(ins) > 0 {
		fmt.Fprintf(bw, "input %s\n", strings.Join(ins, " "))
	}
	if len(outs) > 0 {
		fmt.Fprintf(bw, "output %s\n", strings.Join(outs, " "))
	}
	for ci := range g.Cells {
		c := &g.Cells[ci]
		inNames := make([]string, len(c.Inputs))
		for i, n := range c.Inputs {
			inNames[i] = g.Nets[n].Name
		}
		outNames := make([]string, len(c.Outputs))
		for i, n := range c.Outputs {
			outNames[i] = g.Nets[n].Name
		}
		rows := make([]string, len(c.Dep))
		for i, d := range c.Dep {
			var sb strings.Builder
			for j := 0; j < d.Len(); j++ {
				if d.Get(j) {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
			rows[i] = sb.String()
		}
		replica := ""
		if c.Replica {
			replica = " replica=1"
		}
		fmt.Fprintf(bw, "cell %s area=%d dff=%d%s in=%s out=%s dep=%s\n",
			c.Name, c.Area, c.DFFs, replica,
			strings.Join(inNames, ","), strings.Join(outNames, ","), strings.Join(rows, ";"))
	}
	return bw.Flush()
}

// Read parses the text format with the default Limits and validates
// the result.
func Read(r io.Reader) (*Graph, error) {
	return ReadLimits(r, Limits{})
}

// ReadLimits is Read under explicit resource caps: input exceeding a
// limit fails fast with a *textparse.ParseError wrapping a
// *textparse.LimitError instead of driving unbounded allocation.
// Syntax errors are *textparse.ParseError too, carrying the 1-based
// line and, where known, the column of the offending token, and so is
// a file that parses but fails validation (textparse.Invalid).
func ReadLimits(r io.Reader, lim Limits) (*Graph, error) {
	lim = lim.withDefaults()
	lr := textparse.NewReader(r, "hypergraph", lim.MaxLineBytes)
	var b *Builder
	cells := 0
	var fanout []int // pins per net, indexed by NetID
	netOf := func(name string) (NetID, error) {
		if id, ok := b.NetByName(name); ok {
			return id, nil
		}
		if len(fanout) >= lim.MaxNets {
			return 0, lr.Limit("nets", len(fanout)+1, lim.MaxNets)
		}
		id := b.Net(name)
		for int(id) >= len(fanout) {
			fanout = append(fanout, 0)
		}
		return id, nil
	}
	pin := func(id NetID) error {
		for int(id) >= len(fanout) {
			fanout = append(fanout, 0)
		}
		fanout[id]++
		if fanout[id] > lim.MaxFanout {
			return lr.Limit("fanout", fanout[id], lim.MaxFanout)
		}
		return nil
	}
	for lr.Scan() {
		line := strings.TrimSpace(lr.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "circuit":
			if b != nil {
				return nil, lr.Errorf(0, "duplicate circuit line")
			}
			if len(fields) != 2 {
				return nil, lr.Errorf(0, "want 'circuit <name>'")
			}
			b = NewBuilder(fields[1])
		case "input":
			if b == nil {
				return nil, lr.Errorf(0, "input before circuit")
			}
			for _, n := range fields[1:] {
				if _, ok := b.NetByName(n); !ok && len(fanout) >= lim.MaxNets {
					return nil, lr.Limit("nets", len(fanout)+1, lim.MaxNets)
				}
				id := b.InputNet(n)
				for int(id) >= len(fanout) {
					fanout = append(fanout, 0)
				}
			}
		case "output":
			if b == nil {
				return nil, lr.Errorf(0, "output before circuit")
			}
			for _, n := range fields[1:] {
				id, err := netOf(n)
				if err != nil {
					return nil, err
				}
				b.MarkOutput(id)
			}
		case "cell":
			if b == nil {
				return nil, lr.Errorf(0, "cell before circuit")
			}
			if len(fields) < 2 {
				return nil, lr.Errorf(0, "cell needs a name (truncated record?)")
			}
			if cells >= lim.MaxCells {
				return nil, lr.Limit("cells", cells+1, lim.MaxCells)
			}
			spec := CellSpec{Name: fields[1], Area: 1}
			var depRows []string
			pins := 0
			for fi, kv := range fields[2:] {
				col := textparse.FieldCol(line, fi+2)
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, lr.Errorf(col, "bad attribute %q (truncated record?)", kv)
				}
				switch key {
				case "area":
					a, err := strconv.Atoi(val)
					if err != nil {
						return nil, lr.Errorf(col, "area: %v", err)
					}
					spec.Area = a
				case "dff":
					d, err := strconv.Atoi(val)
					if err != nil {
						return nil, lr.Errorf(col, "dff: %v", err)
					}
					spec.DFFs = d
				case "replica":
					r, err := strconv.Atoi(val)
					if err != nil {
						return nil, lr.Errorf(col, "replica: %v", err)
					}
					spec.Replica = r != 0
				case "in":
					if val != "" {
						for _, n := range strings.Split(val, ",") {
							id, err := netOf(n)
							if err != nil {
								return nil, err
							}
							if err := pin(id); err != nil {
								return nil, err
							}
							spec.Inputs = append(spec.Inputs, id)
							pins++
						}
					}
				case "out":
					if val != "" {
						for _, n := range strings.Split(val, ",") {
							id, err := netOf(n)
							if err != nil {
								return nil, err
							}
							if err := pin(id); err != nil {
								return nil, err
							}
							spec.Outputs = append(spec.Outputs, id)
							pins++
						}
					}
				case "dep":
					depRows = strings.Split(val, ";")
				default:
					return nil, lr.Errorf(col, "unknown attribute %q", key)
				}
				if pins > lim.MaxPins {
					return nil, lr.Limit("pins", pins, lim.MaxPins)
				}
			}
			if depRows != nil {
				spec.DepBits = make([][]int, len(depRows))
				for i, row := range depRows {
					bits := make([]int, len(row))
					for j, ch := range row {
						switch ch {
						case '0':
						case '1':
							bits[j] = 1
						default:
							return nil, lr.Errorf(0, "dep digit %q", ch)
						}
					}
					spec.DepBits[i] = bits
				}
			}
			b.AddCell(spec)
			cells++
		default:
			return nil, lr.Errorf(textparse.FieldCol(line, 0), "unknown directive %q", fields[0])
		}
	}
	if err := lr.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, &textparse.ParseError{Format: "hypergraph", Msg: "missing 'circuit' line (empty or truncated file?)"}
	}
	g, err := b.Build()
	if err != nil {
		return nil, textparse.Invalid("hypergraph", err)
	}
	return g, nil
}

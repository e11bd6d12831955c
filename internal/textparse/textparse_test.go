package textparse

import (
	"errors"
	"strings"
	"testing"
)

// Each case reads src to the end, failing at the first line that
// starts with "bad", and checks the error a reader reports.
func TestReader(t *testing.T) {
	cases := []struct {
		name string
		src  string
		max  int
		want string // "" for a clean end of input
		line int    // wanted ParseError.Line
	}{
		{"clean", "a\n\n# c\nb\n", 64, "", 0},
		{"blank and comment lines count", "a\n\n# c\n  \n    bad x\n", 64, "t: line 5, col 5: bad at 5", 5},
		{"no final newline", "a\nbad", 64, "t: line 2, col 1: bad at 1", 2},
		{"line-bytes after the last full line", "abc\nde\n" + strings.Repeat("x", 20) + "\nbad\n", 8, "t: line 3: line-bytes 9 exceeds limit 8", 3},
		{"line-bytes on the first line", strings.Repeat("x", 9), 8, "t: line 1: line-bytes 9 exceeds limit 8", 1},
		// The cap counts the line terminator.
		{"line within the cap", strings.Repeat("x", 7) + "\nbad\n", 8, "t: line 2, col 1: bad at 1", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := readAll(strings.NewReader(tc.src), tc.max)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("want clean end, got %v", err)
				}
				return
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("want *ParseError, got %T: %v", err, err)
			}
			if err.Error() != tc.want || pe.Line != tc.line {
				t.Fatalf("got %q (line %d), want %q (line %d)", err, pe.Line, tc.want, tc.line)
			}
		})
	}
}

// readAll is a minimal reader in the shape of the format readers: it
// fails at the first line starting with "bad", pointing at the
// field's column.
func readAll(src *strings.Reader, max int) error {
	lr := NewReader(src, "t", max)
	for lr.Scan() {
		line := lr.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "bad") {
			col := FieldCol(line, 0)
			return lr.Errorf(col, "bad at %d", col)
		}
	}
	return lr.Err()
}

func TestReaderLimit(t *testing.T) {
	lr := NewReader(strings.NewReader("x\ny\n"), "t", 64)
	lr.Scan()
	lr.Scan()
	err := lr.Limit("cells", 11, 10)
	var le *LimitError
	if !errors.As(err, &le) || le.Quantity != "cells" {
		t.Fatalf("want cells *LimitError, got %v", err)
	}
	if got, want := err.Error(), "t: line 2: cells 11 exceeds limit 10"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestParseErrorText(t *testing.T) {
	cases := []struct {
		err  *ParseError
		want string
	}{
		{&ParseError{Format: "hypergraph", Msg: "missing 'circuit' line"}, "hypergraph: missing 'circuit' line"},
		{&ParseError{Format: "netlist", Line: 4, Msg: "m"}, "netlist: line 4: m"},
		{&ParseError{Format: "netlist", Line: 4, Col: 2, Msg: "m", Err: errors.New("e")}, "netlist: line 4, col 2: m: e"},
		{&ParseError{Format: "topology", Line: 3, Err: errors.New("e")}, "topology: line 3: e"},
		{&ParseError{Format: "x", Col: 5, Msg: "m"}, "x: m"},
	}
	for _, tc := range cases {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("got %q, want %q", got, tc.want)
		}
	}
}

func TestFieldCol(t *testing.T) {
	cases := []struct {
		line string
		idx  int
		want int
	}{
		{"cell u0 area", 0, 1},
		{"cell u0 area", 2, 9},
		{"  cell\tu0", 0, 3},
		{"  cell\tu0", 1, 8},
		{"cell u0", 2, 0},
		{"", 0, 0},
		{"   ", 0, 0},
	}
	for _, tc := range cases {
		if got := FieldCol(tc.line, tc.idx); got != tc.want {
			t.Errorf("FieldCol(%q, %d) = %d, want %d", tc.line, tc.idx, got, tc.want)
		}
	}
}

package hypergraph

import (
	"errors"
	"strings"
	"testing"

	"fpgapart/internal/textparse"
)

// Each case trips exactly one cap and checks the failure is a
// *textparse.ParseError wrapping a *textparse.LimitError naming the
// capped quantity.
func TestReadLimits(t *testing.T) {
	lim := Limits{MaxLineBytes: 128, MaxCells: 2, MaxPins: 4, MaxFanout: 3, MaxNets: 6}
	cases := []struct {
		name     string
		src      string
		quantity string
	}{
		{"cells", "circuit c\ninput a\ncell u0 in=a out=w0\ncell u1 in=w0 out=w1\ncell u2 in=w1 out=w2\n", "cells"},
		{"pins", "circuit c\ninput a b c\ncell u0 in=a,b,c,a,b out=y\n", "pins"},
		{"fanout", "circuit c\ninput a\ncell u0 in=a,a,a,a out=y\n", "fanout"},
		{"nets", "circuit c\ninput a\ncell u0 in=a out=w0,w1,w2\ncell u1 in=w0 out=w3,w4,w5\n", "nets"},
		{"line-bytes", "circuit c\ninput a\ncell u0 in=a out=" + strings.Repeat("w,", 80) + "y\n", "line-bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadLimits(strings.NewReader(tc.src), lim)
			if err == nil {
				t.Fatal("want limit error, got nil")
			}
			var le *textparse.LimitError
			if !errors.As(err, &le) {
				t.Fatalf("want *textparse.LimitError, got %T: %v", err, err)
			}
			if le.Quantity != tc.quantity {
				t.Fatalf("quantity = %q, want %q (err: %v)", le.Quantity, tc.quantity, err)
			}
			var pe *textparse.ParseError
			if !errors.As(err, &pe) || pe.Line == 0 {
				t.Fatalf("limit error lacks line position: %v", err)
			}
		})
	}
}

func TestParseErrorPosition(t *testing.T) {
	// A bad attribute carries the column of the token.
	_, err := Read(strings.NewReader("circuit c\ncell u0 area\n"))
	var pe *textparse.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *textparse.ParseError, got %T: %v", err, err)
	}
	if pe.Line != 2 || pe.Col != 9 {
		t.Fatalf("pos = line %d col %d, want line 2 col 9", pe.Line, pe.Col)
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("message should hint at truncation: %v", err)
	}

	// Empty input names the likely cause.
	_, err = Read(strings.NewReader(""))
	if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "missing 'circuit'") {
		t.Fatalf("empty input: %v", err)
	}
}

package netlist

import (
	"errors"
	"strings"
	"testing"

	"fpgapart/internal/textparse"
)

// Each case feeds input that trips exactly one cap and checks the
// failure is a *textparse.ParseError wrapping a *textparse.LimitError
// naming the capped quantity — the contract callers (the CLI exit-code
// mapping, the daemon's 400 handler) rely on.
func TestReadLimits(t *testing.T) {
	cases := []struct {
		name     string
		lim      Limits
		src      string
		quantity string
	}{
		{"gates", Limits{MaxGates: 2},
			"circuit c\ninput a\noutput y3\nnot y1 a\nnot y2 y1\nnot y3 y2\n", "gates"},
		{"pins", Limits{MaxPins: 4},
			"circuit c\ninput a b c d\noutput y\nand y a b c d\n", "pins"},
		{"fanout", Limits{MaxFanout: 3},
			"circuit c\ninput a\noutput y1 y2 y3 y4\nnot y1 a\nnot y2 a\nnot y3 a\nnot y4 a\n", "fanout"},
		{"line-bytes", Limits{MaxLineBytes: 128},
			"circuit c\ninput a\noutput y\nand y a " + strings.Repeat("x ", 100) + "\n", "line-bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadLimits(strings.NewReader(tc.src), tc.lim)
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

func TestReadLimitsLutInputs(t *testing.T) {
	// With a roomy pin cap the LUT fan-in cap is what trips: the
	// truth table would otherwise cost 2^k entries.
	lim := Limits{MaxLutInputs: 3}
	src := "circuit c\ninput a b c d\noutput y\nlut y a b c d @1010101010101010\n"
	_, err := ReadLimits(strings.NewReader(src), lim)
	var le *textparse.LimitError
	if !errors.As(err, &le) || le.Quantity != "lut-inputs" {
		t.Fatalf("want lut-inputs limit error, got %v", err)
	}
}

func TestParseErrorPosition(t *testing.T) {
	// Truncated gate record: line context plus a hint.
	_, err := Read(strings.NewReader("circuit c\ninput a\noutput y\nand y\n"))
	var pe *textparse.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *textparse.ParseError, got %T: %v", err, err)
	}
	if pe.Line != 4 {
		t.Fatalf("line = %d, want 4", pe.Line)
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("message should hint at truncation: %v", err)
	}

	// A bad truth-table digit points at the @-token's column.
	_, err = Read(strings.NewReader("circuit c\ninput a\noutput y\nlut y a @1x\n"))
	if !errors.As(err, &pe) {
		t.Fatalf("want *textparse.ParseError, got %T: %v", err, err)
	}
	if pe.Line != 4 || pe.Col != 9 {
		t.Fatalf("pos = line %d col %d, want line 4 col 9", pe.Line, pe.Col)
	}

	// Empty input names the likely cause.
	_, err = Read(strings.NewReader(""))
	if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "missing 'circuit'") {
		t.Fatalf("empty input: %v", err)
	}
}

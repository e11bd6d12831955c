package netlist

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"fpgapart/internal/textparse"
)

// Fuzz targets for the .gnl parser. `go test` exercises the seed
// corpus; `go test -fuzz=FuzzRead` explores further.

func FuzzRead(f *testing.F) {
	seeds := []string{
		"circuit c\ninput a b\noutput y\nand y a b\n",
		"circuit c\ninput a\noutput y\nlut y a @10\n",
		"# only a comment\n",
		"circuit x\ninput a\noutput q\ndff q a\n",
		"circuit c\ninput a\noutput y\nand y\n",
		"circuit c\ncircuit d\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		// Anything accepted must validate, survive a write/read round
		// trip, and simulate one cycle without crashing.
		if err := n.Validate(); err != nil {
			t.Fatalf("accepted invalid netlist: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, n); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, buf.String())
		}
		sim, err := NewSimulator(back)
		if err != nil {
			t.Fatalf("simulator: %v", err)
		}
		if _, err := sim.Step(nil); err != nil {
			t.Fatalf("step: %v", err)
		}
	})
}

// FuzzParseNetlist drives ReadLimits with deliberately tight caps so
// the limit checks themselves get fuzzed: the seeds each trip one cap.
// Whatever the input, the parser must return cleanly — any failure
// must be a typed *textparse.ParseError (optionally wrapping a
// *textparse.LimitError), never a panic or an untyped error.
func FuzzParseNetlist(f *testing.F) {
	seeds := []string{
		// Trips MaxGates=4.
		"circuit c\ninput a\noutput y5\nnot y1 a\nnot y2 y1\nnot y3 y2\nnot y4 y3\nnot y5 y4\n",
		// Trips MaxPins=8.
		"circuit c\ninput a b c d e f g h i\noutput y\nand y a b c d e f g h i\n",
		// Trips MaxFanout=4.
		"circuit c\ninput a\noutput y\nand y a a a a a\n",
		// Trips MaxLutInputs=4.
		"circuit c\ninput a b c d e\noutput y\nlut y a b c d e @10101010101010101010101010101010\n",
		// Trips MaxLineBytes=256.
		"circuit c\ninput a\noutput y\nand y a " + strings.Repeat("a ", 200) + "\n",
		// Truncated gate record.
		"circuit c\ninput a\noutput y\nand y\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	lim := Limits{MaxLineBytes: 256, MaxGates: 4, MaxPins: 8, MaxFanout: 4, MaxLutInputs: 4}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := ReadLimits(strings.NewReader(src), lim)
		if err != nil {
			var pe *textparse.ParseError
			if !errors.As(err, &pe) && !strings.HasPrefix(err.Error(), "netlist:") {
				t.Fatalf("untyped parse failure: %v", err)
			}
			return
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("accepted invalid netlist: %v", err)
		}
		if len(n.Gates) > lim.MaxGates {
			t.Fatalf("limit leak: %d gates accepted, cap %d", len(n.Gates), lim.MaxGates)
		}
	})
}

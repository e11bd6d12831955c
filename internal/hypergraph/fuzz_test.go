package hypergraph

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"fpgapart/internal/textparse"
)

func FuzzRead(f *testing.F) {
	seeds := []string{
		"circuit c\ninput a b\noutput y z\ncell u0 in=a,b out=y,z dep=11;01\n",
		"circuit c\ninput a\noutput y\ncell u0 area=2 dff=1 in=a out=y\n",
		"circuit c\n",
		"circuit c\ninput a\noutput y\ncell u0 in=a out=y dep=1\ncell u1 in=y out=a\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, buf.String())
		}
		if back.NumCells() != g.NumCells() || back.NumNets() != g.NumNets() ||
			back.NumPins() != g.NumPins() || back.NumTerminals() != g.NumTerminals() {
			t.Fatal("round trip changed counts")
		}
	})
}

// FuzzParseHypergraph drives ReadLimits with deliberately tight caps
// so the limit checks themselves get fuzzed: the seeds each trip one
// cap. Any failure must be a typed *textparse.ParseError (optionally
// wrapping a *textparse.LimitError), never a panic or an untyped error.
func FuzzParseHypergraph(f *testing.F) {
	seeds := []string{
		// Trips MaxCells=4.
		"circuit c\ninput a\noutput y\ncell u0 in=a out=w0\ncell u1 in=w0 out=w1\ncell u2 in=w1 out=w2\ncell u3 in=w2 out=w3\ncell u4 in=w3 out=y\n",
		// Trips MaxPins=8.
		"circuit c\ninput a b c d e\noutput y\ncell u0 in=a,b,c,d,e,a,b,c out=y\n",
		// Trips MaxFanout=4.
		"circuit c\ninput a\noutput y\ncell u0 in=a,a,a,a,a out=y\n",
		// Trips MaxNets=8.
		"circuit c\ninput a\ncell u0 in=a out=w0,w1,w2,w3,w4,w5,w6,w7,w8\n",
		// Trips MaxLineBytes=256.
		"circuit c\ninput a\ncell u0 in=a out=" + strings.Repeat("w,", 150) + "y\n",
		// Truncated cell record.
		"circuit c\ncell\n",
		// Bad attribute.
		"circuit c\ncell u0 area\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	lim := Limits{MaxLineBytes: 256, MaxCells: 4, MaxPins: 8, MaxFanout: 4, MaxNets: 8}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ReadLimits(strings.NewReader(src), lim)
		if err != nil {
			var pe *textparse.ParseError
			if !errors.As(err, &pe) && !strings.HasPrefix(err.Error(), "hypergraph:") {
				t.Fatalf("untyped parse failure: %v", err)
			}
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
		if g.NumCells() > lim.MaxCells {
			t.Fatalf("limit leak: %d cells accepted, cap %d", g.NumCells(), lim.MaxCells)
		}
	})
}

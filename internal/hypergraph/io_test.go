package hypergraph

import (
	"bytes"
	"strings"
	"testing"

	"fpgapart/internal/bitset"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g, _ := figure1Cell(t)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v\nsource:\n%s", err, buf.String())
	}
	if back.Name != g.Name || back.NumCells() != g.NumCells() || back.NumNets() != g.NumNets() {
		t.Fatalf("round trip mismatch: %d cells %d nets", back.NumCells(), back.NumNets())
	}
	if back.NumTerminals() != g.NumTerminals() {
		t.Fatalf("terminals differ: %d vs %d", back.NumTerminals(), g.NumTerminals())
	}
	c := back.Cell(0)
	if c.Dep[0].String() != bitset.FromBits(1, 1, 0).String() || c.Dep[1].String() != bitset.FromBits(0, 1, 1).String() {
		t.Fatalf("dep lost: %v %v", c.Dep[0], c.Dep[1])
	}
	if psi := c.ReplicationPotential(); psi != 2 {
		t.Fatalf("ψ after round trip = %d", psi)
	}
}

func TestRoundTripLargerGraph(t *testing.T) {
	g := chain(t)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumCells() != g.NumCells() || back.NumPins() != g.NumPins() || back.NumDFF() != g.NumDFF() {
		t.Fatal("round trip counts differ")
	}
}

func TestReadDefaultsAreaAndDep(t *testing.T) {
	src := `circuit c
input a b
output y z
cell u0 in=a,b out=y,z
`
	g, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	c := g.Cell(0)
	if c.Area != 1 {
		t.Fatalf("default area = %d", c.Area)
	}
	// Default dep = full dependence -> ψ = 0.
	if c.ReplicationPotential() != 0 {
		t.Fatal("default dep should be full")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"no circuit":    "input a\n",
		"dup circuit":   "circuit a\ncircuit b\n",
		"bad attr":      "circuit c\ncell u0 weird\n",
		"bad area":      "circuit c\ncell u0 area=x out=y in=\n",
		"bad dep digit": "circuit c\ninput a\noutput y\ncell u0 in=a out=y dep=2\n",
		"unknown":       "circuit c\nfoo bar\n",
		"invalid graph": "circuit c\ninput a\ncell u0 in=a out=a\n",
		"unnamed cell":  "circuit c\ncell\n",
		"unknown key":   "circuit c\ncell u0 color=red\n",
	}
	for name, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadDFFAndArea(t *testing.T) {
	src := `circuit c
input a
output y
cell u0 area=3 dff=2 in=a out=y dep=1
`
	g, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalArea() != 3 || g.NumDFF() != 2 {
		t.Fatalf("area=%d dff=%d", g.TotalArea(), g.NumDFF())
	}
}

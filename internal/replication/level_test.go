package replication

import (
	"strings"
	"testing"

	"fpgapart/internal/hypergraph"
)

// AddLevelCell refuses the cells validating a graph would refuse, names
// the cell by its index, and leaves the level as it was; a level
// without a graph still resets, checks its invariants and reports its
// errors.
func TestAddLevelCellChecks(t *testing.T) {
	nets := func(ids ...hypergraph.NetID) []hypergraph.NetID { return ids }
	wide := make([]hypergraph.NetID, MaxOutputs+1)
	for i := range wide {
		wide[i] = hypergraph.NetID(i % 3)
	}
	var st State
	st.StartLevel(2, 3)
	for _, ext := range []bool{true, false, false} {
		st.AddLevelNet(ext)
	}
	if err := st.AddLevelCell(2, nets(0), nets(1)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		area      int
		ins, outs []hypergraph.NetID
		want      string
	}{
		{"zero area", 0, nets(1), nets(2), "non-positive area 0"},
		{"no outputs", 1, nets(1), nil, "no outputs"},
		{"too many outputs", 1, nil, wide, "33 outputs, max 32"},
		{"output out of range", 1, nets(1), nets(3), "pin on net 3 of 3"},
		{"input out of range", 1, nets(-1), nets(2), "pin on net -1 of 3"},
	} {
		err := st.AddLevelCell(tc.area, tc.ins, tc.outs)
		if err == nil || !strings.Contains(err.Error(), "level cell #1") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming level cell #1 and %q", tc.name, err, tc.want)
		}
	}
	if err := st.AddLevelCell(1, nets(1), nets(2)); err != nil {
		t.Fatal(err)
	}
	st.FinishLevel()
	if st.NumCells() != 2 || st.NumNets() != 3 || st.TotalArea() != 3 || st.NumExternal() != 1 {
		t.Fatalf("level has %d cells, %d nets, area %d and %d terminals; want 2, 3, 3 and 1",
			st.NumCells(), st.NumNets(), st.TotalArea(), st.NumExternal())
	}
	if st.g != nil {
		t.Fatal("a level has a graph")
	}
	if err := st.ResetPinned([]Block{0, 1}, st.extPin); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st.CutSize() != 1 {
		t.Fatalf("cut %d, want 1 (net 1)", st.CutSize())
	}
	if err := st.ResetPinned([]Block{0, 2}, st.extPin); err == nil || !strings.Contains(err.Error(), `cell "#1"`) {
		t.Fatalf("ResetPinned with block 2: error %v, want one naming cell #1", err)
	}
}

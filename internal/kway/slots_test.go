package kway

import (
	"testing"

	"fpgapart/internal/hypergraph"
	"fpgapart/internal/topology"
)

// spanTracker returns a tracker on a board whose placed spans are, for
// nets "n0", "n1", "n2": empty, {0}, {0,1}, plus a subcircuit over them.
func spanTracker(t *testing.T) func(*topology.Board, error) (*slotTracker, *hypergraph.Graph) {
	return func(b *topology.Board, err error) (*slotTracker, *hypergraph.Graph) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		tr := newSlotTracker(b)
		tr.spans["n1"] = topology.SlotSet(0).Add(0)
		tr.spans["n2"] = topology.SlotSet(0).Add(0).Add(1)
		sub := &hypergraph.Graph{Nets: []hypergraph.Net{{Name: "n0"}, {Name: "n1"}, {Name: "n2"}}}
		return tr, sub
	}
}

func TestCarveWeightsLinear(t *testing.T) {
	tr, sub := spanTracker(t)(topology.Linear(4, 0))
	// Carve between s0=2, s1=3.
	w := tr.carveWeights(sub, 2, 3)
	if len(w) != 3 {
		t.Fatalf("%d weights, want 3", len(w))
	}
	// Empty span: landing anywhere alone costs 0, cut costs dist(2,3)=1.
	if w[0].Alone != [2]int32{0, 0} || w[0].Both != 1 {
		t.Fatalf("empty-span weights %+v", w[0])
	}
	// Span {0}: extend to 2 costs 2, to 3 costs 3, to both 3.
	if w[1].Alone != [2]int32{2, 3} || w[1].Both != 3 {
		t.Fatalf("span{0} weights %+v", w[1])
	}
	// Span {0,1}: extend to 2 costs 1, to 3 costs 2, to both 2.
	if w[2].Alone != [2]int32{1, 2} || w[2].Both != 2 {
		t.Fatalf("span{0,1} weights %+v", w[2])
	}
	// Spans n1 {0} and n2 {0,1} cost 0 and 1.
	if got := tr.cost(); got != 1 {
		t.Fatalf("tracker cost = %d, want 1", got)
	}
}

func TestCarveWeightsCrossbar(t *testing.T) {
	tr, sub := spanTracker(t)(topology.Crossbar(4, 0))
	// On a crossbar every new slot costs 1 once the span is non-empty,
	// so cutting always costs exactly 1 more than not cutting: the
	// flat-cut regime with a constant offset.
	for i, w := range tr.carveWeights(sub, 2, 3) {
		if w.Both-w.Alone[0] != 1 || w.Both-w.Alone[1] != 1 {
			t.Fatalf("net %d: crossbar weights %+v not cut+1", i, w)
		}
	}
}

func TestCarveWeightsReuseBuffer(t *testing.T) {
	tr, sub := spanTracker(t)(topology.Mesh(2, 2, 0))
	first := tr.carveWeights(sub, 0, 1)
	second := tr.carveWeights(sub, 0, 1)
	if &first[0] != &second[0] {
		t.Fatal("buffer not reused")
	}
}

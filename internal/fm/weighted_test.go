package fm

import (
	"testing"

	"fpgapart/internal/replication"
	"fpgapart/internal/span"
	"fpgapart/internal/topology"
	"fpgapart/internal/trace"
)

// boardWeights derives a per-net weight table the way the k-way engine
// does for a carve between board slots 0 and 1: each net gets a
// deterministic pseudo-random "already placed" span over the remaining
// slots, and the weights are the marginal Steiner costs of extending
// that span to slot 0, slot 1, or both. This produces the full range
// of weighted behavior — zero rows, asymmetric Alone costs, and
// negative marginals (a new slot can shorten a Steiner detour).
func boardWeights(t *testing.T, b *topology.Board, nets int) []replication.NetWeights {
	t.Helper()
	w := make([]replication.NetWeights, nets)
	for i := range w {
		var span topology.SlotSet
		// Pre-place on slots 2..Slots-1 by a fixed mixing pattern.
		for s := 2; s < b.Slots; s++ {
			if (i*7+s*13)%3 == 0 {
				span = span.Add(s)
			}
		}
		base := b.SpanCost(span)
		w[i] = replication.NetWeights{
			Alone: [2]int32{
				int32(b.SpanCost(span.Add(0)) - base),
				int32(b.SpanCost(span.Add(1)) - base),
			},
			Both: int32(b.SpanCost(span.Add(0).Add(1)) - base),
		}
	}
	return w
}

// invariantSink cross-checks the incrementally maintained weighted
// objective against a from-scratch recount after every completed FM
// pass. Pass events are emitted synchronously from the engine between
// passes (after the best-prefix rollback), so reading the state here
// races with nothing.
type invariantSink struct {
	t      *testing.T
	st     *replication.State
	passes int
}

func (s *invariantSink) Event(e trace.Event) {
	if e.Kind != trace.KindFMPass {
		return
	}
	s.passes++
	if err := s.st.CheckInvariants(); err != nil {
		s.t.Errorf("after pass %d: %v", e.Pass, err)
	}
}

// TestWeightedRunMatchesRecount is the incremental-vs-recount
// differential for the topology objective: an FM run (serial and
// parallel sub-round engines, with and without replication) on a
// board-weighted state must keep the maintained TopologyCost equal to
// an independent recount at every pass boundary, and must not increase
// the weighted objective overall.
func TestWeightedRunMatchesRecount(t *testing.T) {
	board, err := topology.Mesh(2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name          string
		threshold     int
		refineWorkers int
	}{
		{"serial", NoReplication, 0},
		{"serial-replication", 4, 0},
		{"parallel", NoReplication, 3},
		{"parallel-replication", 4, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(t, 220, 5, 0.5)
			st, err := replication.NewState(g, RandomAssign(g, 9))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.SetNetWeights(boardWeights(t, board, g.NumNets())); err != nil {
				t.Fatal(err)
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("after SetNetWeights: %v", err)
			}
			before := st.Objective()
			sink := &invariantSink{t: t, st: st}
			cfg := equalCfg(g, tc.threshold, 17)
			tracer := span.NewTracer(span.Options{Process: "fm-test"})
			cfg.Spans = tracer.Root(span.DeriveTraceID("weighted", 17, 0), 0).WithSink(sink)
			cfg.TraceAttempt = -1
			cfg.RefineWorkers = tc.refineWorkers
			if _, err := Run(st, cfg); err != nil {
				t.Fatal(err)
			}
			if sink.passes == 0 {
				t.Fatal("no FM pass events recorded — differential never ran")
			}
			if st.Objective() > before {
				t.Fatalf("weighted objective increased: %d -> %d", before, st.Objective())
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("after run: %v", err)
			}
			t.Logf("passes=%d objective %d -> %d", sink.passes, before, st.Objective())
		})
	}
}

// TestWeightedNilRevertsToCut pins the gate: installing and then
// removing a weight table leaves the state on the classic cut
// objective with TopologyCost zeroed.
func TestWeightedNilRevertsToCut(t *testing.T) {
	g := testGraph(t, 80, 6, 0.4)
	st, err := replication.NewState(g, RandomAssign(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	board, err := topology.Crossbar(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetNetWeights(boardWeights(t, board, g.NumNets())); err != nil {
		t.Fatal(err)
	}
	if !st.Weighted() || st.Objective() != st.TopologyCost() {
		t.Fatal("weight table not armed")
	}
	if err := st.SetNetWeights(nil); err != nil {
		t.Fatal(err)
	}
	if st.Weighted() || st.TopologyCost() != 0 || st.Objective() != st.CutSize() {
		t.Fatalf("nil weights did not revert: weighted=%v topo=%d obj=%d cut=%d",
			st.Weighted(), st.TopologyCost(), st.Objective(), st.CutSize())
	}
}

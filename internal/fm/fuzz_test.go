package fm

import (
	"slices"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/replication"
	"fpgapart/internal/trace"
)

// roundChecker verifies state conservation after every sub-round: the
// committer emits KindParRound synchronously between sub-rounds, so
// CheckInvariants here recomputes counts/cut/areas/terminals and the
// maintained single-move gains from scratch against the live mid-pass
// state, and the area bounds must hold after every commit batch.
type roundChecker struct {
	t   *testing.T
	st  *replication.State
	cfg Config
	// rounds holds every sub-round event, for the worker-count
	// comparison.
	rounds []trace.Event
	// Running protocol totals: bucketed proposals persist across
	// sub-rounds, so conservation (commits+stale <= proposals) holds
	// cumulatively, not per sub-round.
	proposals int
	consumed  int
}

func (rc *roundChecker) Event(e trace.Event) {
	if e.Kind != trace.KindParRound {
		return
	}
	rc.rounds = append(rc.rounds, e)
	if len(rc.rounds) > 64 { // bound the O(n·pins) recheck work per fuzz case
		return
	}
	if err := rc.st.CheckInvariants(); err != nil {
		rc.t.Errorf("after sub-round %d of pass %d: %v", e.Round, e.Pass, err)
	}
	for b := replication.Block(0); b < 2; b++ {
		if a := rc.st.Area(b); a < rc.cfg.MinArea[b] || a > rc.cfg.MaxArea[b] {
			rc.t.Errorf("after sub-round %d: block %d area %d outside [%d,%d]",
				e.Round, b, a, rc.cfg.MinArea[b], rc.cfg.MaxArea[b])
		}
		if rc.st.Terminals(b) < 0 {
			rc.t.Errorf("after sub-round %d: negative terminal count", e.Round)
		}
	}
	rc.proposals += e.Proposals
	rc.consumed += e.Commits + e.Stale
	if rc.consumed > rc.proposals {
		rc.t.Errorf("through sub-round %d of pass %d: %d commits+stale exceed %d proposals",
			e.Round, e.Pass, rc.consumed, rc.proposals)
	}
}

// FuzzProposeCommit drives the propose/commit protocol over random
// instances and configurations, checking conservation of the area,
// cut and terminal invariants after each sub-round, and that the final
// partition and the sub-round event stream are independent of the
// worker count.
func FuzzProposeCommit(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), uint8(2), uint8(10))
	f.Add(int64(7), uint8(120), uint8(1), uint8(4), uint8(15))
	f.Add(int64(13), uint8(200), uint8(2), uint8(8), uint8(5))
	f.Add(int64(99), uint8(25), uint8(3), uint8(3), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, cells, thrSel, workers, slack uint8) {
		n := 20 + int(cells)%230
		g, err := bench.Generate(bench.Params{
			Name: "fuzz", Cells: n, PrimaryIn: 6, PrimaryOut: 4,
			Seed: seed, Clustering: 0.5,
		})
		if err != nil {
			t.Skip()
		}
		threshold := []int{NoReplication, 0, 1, 2}[int(thrSel)%4]
		w := 2 + int(workers)%7
		eps := 0.05 + float64(slack%25)/100
		minA, maxA := Balance(g.TotalArea(), eps)
		assign := RandomAssign(g, seed)
		st, err := replication.NewState(g, assign)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{MinArea: minA, MaxArea: maxA, Threshold: threshold, RefineWorkers: w}
		if st.Area(0) < minA[0] || st.Area(0) > maxA[0] || st.Area(1) < minA[1] || st.Area(1) > maxA[1] {
			t.Skip() // initial assignment outside the fuzzed bounds
		}
		rc := &roundChecker{t: t, st: st, cfg: cfg}
		cfg.Spans = sinkScope(rc)
		// The fuzzed graphs are below minParallel, where Run would take
		// the serial engine: drive the parallel one directly.
		res, err := new(Runner).run(st, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("final state: %v", err)
		}
		if res.Cut != st.CutSize() {
			t.Fatalf("result cut %d, state %d", res.Cut, st.CutSize())
		}
		// Worker-count invariance on the same instance.
		st2, err := replication.NewState(g, assign)
		if err != nil {
			t.Fatal(err)
		}
		rec := &trace.Recorder{}
		cfg2 := cfg
		cfg2.Spans = sinkScope(rec)
		cfg2.RefineWorkers = 2
		res2, err := new(Runner).run(st2, cfg2, true)
		if err != nil {
			t.Fatal(err)
		}
		if res2 != res {
			t.Fatalf("workers=2 result %+v, workers=%d %+v", res2, w, res)
		}
		if partitionSig(st2) != partitionSig(st) {
			t.Fatalf("partition depends on worker count (%d vs 2)", w)
		}
		if !slices.Equal(rec.Filter(trace.KindParRound), rc.rounds) {
			t.Fatalf("sub-round events depend on worker count (%d vs 2)", w)
		}
	})
}

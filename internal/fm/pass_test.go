package fm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fpgapart/internal/faultinject"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
)

// push is the bucket refresh relink replaced, kept as its reference: it
// unlinks every slot of the cell, then inserts the currently valid
// candidates.
func (e *engine) push(c hypergraph.CellID) {
	e.removeAll(c)
	b := e.base[c]
	if e.st.IsReplicated(c) {
		e.insert(b+slotUnrep0, e.st.MustGain(e.pool[b+slotUnrep0].move))
		e.insert(b+slotUnrep1, e.st.MustGain(e.pool[b+slotUnrep1].move))
		return
	}
	if !e.replOnly {
		e.insert(b+slotSingle, e.st.SingleGain(c))
	}
	if e.cfg.Threshold != NoReplication && e.st.CanReplicate(c, e.cfg.Threshold) {
		for i, g := range e.st.SplitGains(c, e.gains[:]) {
			e.insert(b+slotSplit0+int32(i), g)
		}
	}
}

// referencePass is the serial pass without the objective-floor stop,
// refreshing buckets with push: it applies moves until no feasible
// candidate remains, then rolls back to the best prefix.
func (e *engine) referencePass() (bool, int) {
	e.startPass()
	startCut := e.st.CutSize()
	bestCut := startCut
	e.st.SaveCheckpoint(&e.best)
	moves := 0
	for {
		mv, ok := e.pop()
		if !ok {
			break
		}
		if _, err := e.st.Apply(mv); err != nil {
			panic(err)
		}
		moves++
		e.locked[mv.Cell] = true
		e.removeAll(mv.Cell)
		var touched []hypergraph.CellID
		if mv.Kind == replication.SingleMove {
			touched = e.st.LastTouched()
		} else {
			e.scratch = e.st.TouchedCells(mv.Cell, e.scratch)
			touched = e.scratch
		}
		for _, t := range touched {
			if !e.locked[t] {
				e.push(t)
			}
		}
		if cut := e.st.CutSize(); cut < bestCut {
			bestCut = cut
			e.st.SaveCheckpoint(&e.best)
		}
	}
	if err := e.st.RestoreCheckpoint(&e.best); err != nil {
		panic(err)
	}
	return bestCut < startCut, moves
}

// partitionSig flattens the partition: every cell's ownership masks,
// the cut and the areas.
func partitionSig(st *replication.State) string {
	out := fmt.Sprintf("cut=%d area=%d/%d;", st.CutSize(), st.Area(0), st.Area(1))
	for ci := 0; ci < st.NumCells(); ci++ {
		c := hypergraph.CellID(ci)
		out += fmt.Sprintf("%x/%x,", st.OutputsIn(c, 0), st.OutputsIn(c, 1))
	}
	return out
}

// passModes are the three kinds of serial pass: plain, with replication
// and replication-only.
var passModes = []struct {
	name      string
	threshold int
	replOnly  bool
}{
	{"plain", NoReplication, false},
	{"replication", 0, false},
	{"replication-only", 0, true},
}

// A pass stopped at the objective floor must end exactly where the full
// pass ends — same restored partition, same improved flag — in every
// mode, pinned or not, pass after pass.
func TestFrozenStopMatchesFullPass(t *testing.T) {
	stopped := 0
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := testGraph(t, 40+r.Intn(200), 300+seed, r.Float64()*0.8)
		for _, mode := range passModes {
			for _, pinned := range []bool{false, true} {
				assign := RandomAssign(g, seed)
				stStop := pinnedState(t, g, assign, pinned)
				stFull := pinnedState(t, g, assign, pinned)
				cfg := equalCfg(g, mode.threshold, seed)
				var rStop, rFull Runner
				eStop, eFull := rStop.start(stStop, cfg.withDefaults()), rFull.start(stFull, cfg.withDefaults())
				eStop.replOnly, eFull.replOnly = mode.replOnly, mode.replOnly
				for pass := 0; pass < 8; pass++ {
					impStop, movesStop, _ := eStop.pass()
					impFull, movesFull := eFull.referencePass()
					if impStop != impFull || partitionSig(stStop) != partitionSig(stFull) {
						t.Fatalf("seed %d %s pinned=%v pass %d: stopped pass improved=%v cut %d, full pass improved=%v cut %d",
							seed, mode.name, pinned, pass, impStop, stStop.CutSize(), impFull, stFull.CutSize())
					}
					if err := stStop.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					if movesStop < movesFull {
						stopped++
					}
					if !impStop {
						break
					}
				}
			}
		}
	}
	if stopped == 0 {
		t.Fatal("no pass stopped at the objective floor")
	}
}

// The serial engine lays out only the moves a run can insert: the
// single move of every cell, the two unreplications of every
// multi-output cell, and split slots only for the cells the run's
// threshold lets replicate. One runner lays the same state out again
// whenever the threshold changes.
func TestSlotLayout(t *testing.T) {
	g := testGraph(t, 300, 5, 0.5)
	st, err := replication.NewState(g, RandomAssign(g, 5))
	if err != nil {
		t.Fatal(err)
	}
	var r Runner
	splitCells := map[int]int{}
	for _, threshold := range []int{NoReplication, 0, 2, NoReplication, 0} {
		e := r.start(st, equalCfg(g, threshold, 5).withDefaults())
		splitCells[threshold] = 0
		for ci := range st.NumCells() {
			c := hypergraph.CellID(ci)
			want := []replication.Move{{Cell: c, Kind: replication.SingleMove}}
			if st.NumOutputs(c) > 1 {
				want = append(want,
					replication.Move{Cell: c, Kind: replication.Unreplicate, To: 0},
					replication.Move{Cell: c, Kind: replication.Unreplicate, To: 1})
				if threshold != NoReplication && st.CanReplicate(c, threshold) {
					splitCells[threshold]++
					for _, carry := range st.Splits(c) {
						want = append(want, replication.Move{Cell: c, Kind: replication.Replicate, Carry: carry})
					}
				}
			}
			var got []replication.Move
			for _, nd := range e.pool[e.base[c]:e.base[c+1]] {
				got = append(got, nd.move)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("T=%d cell %d (%d outputs, ψ=%d): slots %v, want %v",
					threshold, c, st.NumOutputs(c), g.Cell(c).ReplicationPotential(), got, want)
			}
		}
	}
	if splitCells[2] == 0 || splitCells[2] >= splitCells[0] {
		t.Fatalf("cells with split slots by threshold %v: want some at T=2 and more at T=0", splitCells)
	}
}

// pinnedState builds a state on g, with virtual external pins when
// pinned.
func pinnedState(t *testing.T, g *hypergraph.Graph, assign []replication.Block, pinned bool) *replication.State {
	t.Helper()
	st, err := replication.NewStatePinned(g, assign, pinned)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// bucketLists lists every bucket's nodes head to tail, and maxPtr.
func (e *engine) bucketLists() string {
	var b strings.Builder
	fmt.Fprintf(&b, "max=%d;", e.maxPtr)
	for i, n := range e.head {
		fmt.Fprintf(&b, "%d:", i)
		for ; n != nilNode; n = e.pool[n].next {
			fmt.Fprintf(&b, "%d,", n)
		}
	}
	return b.String()
}

// Refreshing a cell slot by slot (relink) must leave every bucket list
// in the order push, which unlinks all of the cell's slots before
// inserting any, leaves it — through random sequences of bucketed
// moves of every kind, in every mode.
func TestRelinkMatchesPush(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := testGraph(t, 60+r.Intn(120), 500+seed, 0.5)
		for _, mode := range passModes {
			assign := RandomAssign(g, seed)
			pinned := seed%2 == 1
			stA, stB := pinnedState(t, g, assign, pinned), pinnedState(t, g, assign, pinned)
			cfg := equalCfg(g, mode.threshold, seed).withDefaults()
			var rA, rB Runner
			eA, eB := rA.start(stA, cfg), rB.start(stB, cfg)
			eA.replOnly, eB.replOnly = mode.replOnly, mode.replOnly
			eA.startPass()
			eB.startPass()
			for step := 0; ; step++ {
				at := fmt.Sprintf("seed %d %s step %d", seed, mode.name, step)
				if a, b := eA.bucketLists(), eB.bucketLists(); a != b {
					t.Fatalf("%s: relink buckets\n%s\npush buckets\n%s", at, a, b)
				}
				var linked []int32
				for s := range eA.pool {
					if eA.pool[s].bucket != nilNode {
						linked = append(linked, int32(s))
					}
				}
				if len(linked) == 0 {
					break
				}
				mv := eA.pool[linked[r.Intn(len(linked))]].move
				for _, e := range []*engine{eA, eB} {
					if _, err := e.st.Apply(mv); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					e.locked[mv.Cell] = true
					e.removeAll(mv.Cell)
					e.scratch = e.st.TouchedCells(mv.Cell, e.scratch)
					for _, c := range e.scratch {
						if e.locked[c] {
							continue
						}
						if e == eA {
							e.relink(c)
						} else {
							e.push(c)
						}
					}
				}
			}
		}
	}
}

// Run ends only when both phase kinds are dry at the final state, so one
// more plain pass and one more replication-only pass of the same engine
// must both be dry and leave the partition untouched — whether the
// schedule ran or skipped the last pass of each kind.
func TestSkippedPassesAreDry(t *testing.T) {
	checkSkippedPassesAreDry(t, 0)
}

func TestParallelSkippedPassesAreDry(t *testing.T) {
	checkSkippedPassesAreDry(t, 2)
}

func checkSkippedPassesAreDry(t *testing.T, workers int) {
	for seed := int64(0); seed < 8; seed++ {
		g := testGraph(t, 80+int(seed)*30, 400+seed, 0.6)
		for _, threshold := range []int{0, 1} {
			for _, pinned := range []bool{false, true} {
				st, err := replication.NewStatePinned(g, RandomAssign(g, seed), pinned)
				if err != nil {
					t.Fatal(err)
				}
				var r Runner
				if _, err := runEngine(&r, st, equalCfg(g, threshold, seed), workers); err != nil {
					t.Fatal(err)
				}
				want := partitionSig(st)
				for _, replOnly := range []bool{false, true} {
					passThreshold := NoReplication
					if replOnly {
						passThreshold = threshold
					}
					var improved bool
					if workers >= 2 {
						r.par.cfg.Threshold, r.par.replOnly = passThreshold, replOnly
						improved, _, _ = r.par.pass(1)
					} else {
						r.e.cfg.Threshold, r.e.replOnly = passThreshold, replOnly
						improved, _, _ = r.e.pass()
					}
					if improved || partitionSig(st) != want {
						t.Fatalf("seed %d T=%d pinned=%v workers=%d replOnly=%v: pass after Run improved=%v",
							seed, threshold, pinned, workers, replOnly, improved)
					}
				}
			}
		}
	}
}

// The SitePass ordinal counts the passes a run executes: a fault at the
// last executed pass fires, and one at the next ordinal never does,
// because skipped passes consult no fault plan.
func TestInjectOrdinalCountsRunPasses(t *testing.T) {
	g := testGraph(t, 200, 21, 0.6)
	assign := RandomAssign(g, 4)
	run := func(plan *faultinject.Plan) (Result, string, error) {
		st, err := replication.NewState(g, assign)
		if err != nil {
			t.Fatal(err)
		}
		cfg := equalCfg(g, 0, 4)
		cfg.Inject = plan
		res, err := new(Runner).Run(st, cfg)
		return res, partitionSig(st), err
	}
	want, wantSig, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	at := func(i int) *faultinject.Plan {
		return faultinject.NewPlan(faultinject.Rule{
			Site: faultinject.SitePass, Kind: faultinject.KindCancel,
			Attempt: faultinject.Any, Index: i,
		})
	}
	res, _, err := run(at(want.Passes - 1))
	var cancel *faultinject.CancelError
	if !errors.As(err, &cancel) || res.Passes != want.Passes-1 {
		t.Fatalf("fault at pass %d: err %v after %d passes", want.Passes-1, err, res.Passes)
	}
	res, sig, err := run(at(want.Passes))
	if err != nil || res != want || sig != wantSig {
		t.Fatalf("fault past the last pass changed the run: err %v, result %+v, want %+v", err, res, want)
	}
}

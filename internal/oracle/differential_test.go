// Differential tests: the heuristic engines (fm, kway) cross-checked
// against the exhaustive oracle on the fixed 200-case corpus, over
// swept seed/threshold/area-bound grids. External test package: the
// oracle itself must not depend on the engines it judges.
package oracle_test

import (
	"errors"
	"testing"

	"fpgapart/internal/fm"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/kway"
	"fpgapart/internal/library"
	"fpgapart/internal/oracle"
	"fpgapart/internal/replication"
)

func corpus(t testing.TB, cases int) []*hypergraph.Graph {
	t.Helper()
	gs, err := oracle.Corpus(oracle.CorpusParams{Cases: cases})
	if err != nil {
		t.Fatal(err)
	}
	return gs
}

// bounds returns matching loose asymmetry-eps area bounds for an
// engine run and the oracle on the same circuit.
func bounds(g *hypergraph.Graph, eps float64) (minA, maxA [2]int) {
	minA, maxA = fm.Balance(g.TotalArea(), eps)
	// Headroom for replication growth, as core.MinCutBipartition allows.
	maxA = [2]int{maxA[0] * 13 / 10, maxA[1] * 13 / 10}
	for b := 0; b < 2; b++ {
		if maxA[b] > g.TotalArea() {
			maxA[b] = g.TotalArea()
		}
		if maxA[b] < minA[b] {
			maxA[b] = minA[b]
		}
	}
	return minA, maxA
}

// TestFMNeverBeatsOracle sweeps the full corpus with several seeds:
// plain FM can never do better than the exhaustive optimum, and must
// hit it on at least 80% of the corpus (acceptance bar; the observed
// rate is logged).
func TestFMNeverBeatsOracle(t *testing.T) {
	gs := corpus(t, 200)
	hits, total := 0, 0
	for gi, g := range gs {
		minA, maxA := bounds(g, 0.30)
		opt, err := oracle.MinCut(g, oracle.Config{MinArea: minA, MaxArea: maxA})
		if err != nil {
			t.Fatalf("case %d (%d cells): %v", gi, g.NumCells(), err)
		}
		_, res, err := fm.Bipartition(g, fm.Options{
			Config: fm.Config{MinArea: minA, MaxArea: maxA, Threshold: fm.NoReplication, Seed: int64(gi)},
			Starts: 4,
		})
		if err != nil {
			t.Fatalf("case %d: fm: %v", gi, err)
		}
		if res.Cut < opt.Cut {
			t.Fatalf("case %d (%s): FM cut %d beats exhaustive optimum %d — one of them is wrong",
				gi, g.Name, res.Cut, opt.Cut)
		}
		total++
		if res.Cut == opt.Cut {
			hits++
		}
	}
	rate := float64(hits) / float64(total)
	t.Logf("FM hit the exhaustive optimum on %d/%d corpus cases (%.1f%%)", hits, total, 100*rate)
	if rate < 0.80 {
		t.Fatalf("FM optimality rate %.1f%% below the 80%% acceptance bar", 100*rate)
	}
}

// TestReplicationMonotonicityOracle proves, case by exhaustive case,
// the paper's premise: admitting functional replication can never
// increase the optimal min-cut (the plain configuration space is a
// subset of the replicated one).
func TestReplicationMonotonicityOracle(t *testing.T) {
	for gi, g := range corpus(t, 200) {
		minA, maxA := bounds(g, 0.30)
		cfg := oracle.Config{MinArea: minA, MaxArea: maxA}
		plain, err := oracle.MinCut(g, cfg)
		if err != nil {
			t.Fatalf("case %d: %v", gi, err)
		}
		cfg.Replication = true
		repl, err := oracle.MinCut(g, cfg)
		if err != nil {
			t.Fatalf("case %d: %v", gi, err)
		}
		if repl.Cut > plain.Cut {
			t.Fatalf("case %d (%s): replication optimum %d worse than plain optimum %d",
				gi, g.Name, repl.Cut, plain.Cut)
		}
	}
}

// TestFMWithReplicationNeverBeatsOracle: FM with every replication
// threshold stays above the exhaustive replication optimum (its move
// universe is a subset of the oracle's configuration space), across a
// seed/threshold sweep.
func TestFMWithReplicationNeverBeatsOracle(t *testing.T) {
	gs := corpus(t, 60)
	for gi, g := range gs {
		minA, maxA := bounds(g, 0.30)
		opt, err := oracle.MinCut(g, oracle.Config{MinArea: minA, MaxArea: maxA, Replication: true})
		if err != nil {
			t.Fatalf("case %d: %v", gi, err)
		}
		for _, threshold := range []int{0, 1, 2} {
			for seed := int64(0); seed < 2; seed++ {
				st, err := replication.NewState(g, fm.RandomAssign(g, seed))
				if err != nil {
					t.Fatal(err)
				}
				res, err := new(fm.Runner).Run(st, fm.Config{
					MinArea: minA, MaxArea: maxA, Threshold: threshold, Seed: seed,
				})
				if err != nil {
					t.Fatalf("case %d T=%d seed=%d: %v", gi, threshold, seed, err)
				}
				if res.Cut < opt.Cut {
					t.Fatalf("case %d T=%d seed=%d: FM+replication cut %d beats exhaustive optimum %d",
						gi, threshold, seed, res.Cut, opt.Cut)
				}
				if err := st.CheckInvariants(); err != nil {
					t.Fatalf("case %d T=%d seed=%d: state corrupt after run: %v", gi, threshold, seed, err)
				}
			}
		}
	}
}

// forcedSplitLibrary returns a homogeneous library whose single device
// holds ~75% of the circuit, forcing k >= 2.
func forcedSplitLibrary(t *testing.T, g *hypergraph.Graph) (library.Library, library.Device) {
	t.Helper()
	total := g.TotalArea()
	clbs := (3*total + 3) / 4
	if clbs < 2 {
		clbs = 2
	}
	dev := library.Device{Name: "oracle-dev", CLBs: clbs, IOBs: 64, Price: 100, LowUtil: 0, HighUtil: 1}
	lib, err := library.Homogeneous(dev)
	if err != nil {
		t.Fatal(err)
	}
	return lib, dev
}

// spanCut counts source nets touching more than one part — the k-way
// cut in the oracle's terms.
func spanCut(res kway.Result) int {
	touch := map[string]int{}
	for _, p := range res.Parts {
		for ni := range p.Graph.Nets {
			touch[p.Graph.Nets[ni].Name]++
		}
	}
	n := 0
	for _, c := range touch {
		if c > 1 {
			n++
		}
	}
	return n
}

// TestKwayNeverBeatsOracle forces two-device solutions on corpus
// circuits and checks each against the exhaustive bound: no feasible
// 2-way solution — replication or not — can cut fewer nets than the
// oracle's optimum under the same device capacity. Runs with in-loop
// verification enabled, so every accepted carve is checked too.
func TestKwayNeverBeatsOracle(t *testing.T) {
	gs := corpus(t, 120)
	compared, solved := 0, 0
	for gi, g := range gs {
		lib, dev := forcedSplitLibrary(t, g)
		for _, threshold := range []int{fm.NoReplication, 0} {
			res, err := kway.Partition(g, kway.Options{
				Library: lib, Threshold: &threshold, Solutions: 6, Seed: int64(gi), Verify: true,
			})
			if err != nil {
				var verr *kway.VerificationError
				if errors.As(err, &verr) {
					t.Fatalf("case %d T=%d: in-loop verification failed: %v", gi, threshold, err)
				}
				continue // genuinely infeasible under the forced library is acceptable
			}
			solved++
			if res.Summary.K() != 2 {
				continue
			}
			cfg := oracle.Config{
				MinArea:     [2]int{1, 1},
				MaxArea:     [2]int{dev.MaxCLBs(), dev.MaxCLBs()},
				Replication: threshold != fm.NoReplication,
			}
			opt, err := oracle.MinCut(g, cfg)
			if err != nil {
				t.Fatalf("case %d: oracle: %v", gi, err)
			}
			if got := spanCut(res); got < opt.Cut {
				t.Fatalf("case %d T=%d: kway 2-way solution cuts %d nets, below exhaustive optimum %d",
					gi, threshold, got, opt.Cut)
			}
			compared++
		}
	}
	if solved == 0 || compared == 0 {
		t.Fatalf("differential exercised nothing: %d solved, %d compared", solved, compared)
	}
	t.Logf("kway vs oracle: %d runs solved, %d two-way solutions compared", solved, compared)
}

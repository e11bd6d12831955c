package kway_test

import (
	"runtime"
	"testing"

	"fpgapart/internal/bench"
)

// TestPartsOutliveCarveStorage: a carve worker builds each remainder it
// carves again in storage it recycles across carves and attempts, so a
// part that aliased that storage would be overwritten by the worker's
// later attempts. A one-worker search whose best attempt is not its
// last must therefore verify against its circuit and render exactly
// like a four-worker search, whose attempts spread over four workers'
// storage. At seed 12 the attempts after the best one rebuild within
// the storage's grown capacity, so an aliased part would be
// overwritten rather than left behind by a reallocation.
func TestPartsOutliveCarveStorage(t *testing.T) {
	opts := terminalBoundOptions()
	opts.Seed = 12
	res, cps, _ := runCheckpointed(t, opts, &terminalBound)
	if best := cps[len(cps)-1].BestAttempt; best < 0 || best == opts.Solutions-1 {
		t.Fatalf("best attempt %d of %d: the search must fold later attempts after its best", best, opts.Solutions)
	}
	g, err := bench.Generate(terminalBound)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(g); err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	wide, _, _ := runCheckpointed(t, opts, &terminalBound)
	if goldenRender(t, res) != goldenRender(t, wide) {
		t.Fatal("one-worker result differs from the four-worker result")
	}
}

// TestTerminalBoundDeterminism: what a carve passes on to the next
// stays inside one attempt, so on the terminal-bound circuit the
// result is the same for every Workers and GOMAXPROCS value and for a
// search resumed from a mid-search checkpoint.
func TestTerminalBoundDeterminism(t *testing.T) {
	base := terminalBoundOptions()
	want, cps, _ := runCheckpointed(t, base, &terminalBound)
	wantRender := goldenRender(t, want)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 4} {
			opts := base
			opts.Workers = workers
			got, _, _ := runCheckpointed(t, opts, &terminalBound)
			if goldenRender(t, got) != wantRender {
				t.Fatalf("GOMAXPROCS=%d Workers=%d: result differs from the one-worker search", procs, workers)
			}
		}
	}
	opts := base
	cp := cps[len(cps)/2]
	opts.Resume = &cp
	resumed, _, _ := runCheckpointed(t, opts, &terminalBound)
	checkSameResult(t, "resume", want, resumed)
}

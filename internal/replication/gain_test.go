package replication

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fpgapart/internal/hypergraph"
)

// referenceGain is Gain as it was before the per-pin masks: the move's
// per-net connection deltas are accumulated through the state's scratch
// map (accumulateDeltas, which replication commits still use) and every
// listed net is scored. The map-free Gain is diffed against it.
func referenceGain(s *State, m Move) (int, error) {
	nw, err := s.newOwn(m)
	if err != nil {
		return 0, err
	}
	s.accumulateDeltas(m.Cell, s.own[m.Cell], nw)
	defer s.resetScratch()
	gain := 0
	for i, n := range s.scratchNets {
		c0, c1 := s.cnt[n][0], s.cnt[n][1]
		n0, n1 := c0+s.scratchDelta[i][0], c1+s.scratchDelta[i][1]
		wasCut := c0 > 0 && c1 > 0
		isCut := n0 > 0 && n1 > 0
		if wasCut && !isCut {
			gain++
		} else if !wasCut && isCut {
			gain--
		}
	}
	return gain, nil
}

// referenceTouched is the LastTouched an Apply of m must record: the
// mover, then the cells of each net accumulateDeltas lists, in that
// order, each once.
func referenceTouched(s *State, m Move) []hypergraph.CellID {
	nw, err := s.newOwn(m)
	if err != nil {
		panic(err)
	}
	s.accumulateDeltas(m.Cell, s.own[m.Cell], nw)
	defer s.resetScratch()
	seen := map[hypergraph.CellID]bool{m.Cell: true}
	out := []hypergraph.CellID{m.Cell}
	for _, n := range s.scratchNets {
		for _, nc := range s.netAdj[s.netOff[n]:s.netOff[n+1]] {
			if !seen[nc.Cell] {
				seen[nc.Cell] = true
				out = append(out, nc.Cell)
			}
		}
	}
	return out
}

// randomNetlist builds a small graph that stresses the per-pin masks:
// cells with up to five outputs whose input pins repeat a net, read the
// cell's own outputs or nets driven by later cells, depend on no output
// or are unconnected, over a few high-fanout nets.
func randomNetlist(r *rand.Rand, cells int) *hypergraph.Graph {
	b := hypergraph.NewBuilder("gain")
	var nets []hypergraph.NetID
	for i := r.Intn(4); i >= 0; i-- {
		nets = append(nets, b.InputNet(""))
	}
	numIn := len(nets)
	outs := make([][]hypergraph.NetID, cells)
	for c := range outs {
		outs[c] = make([]hypergraph.NetID, 1+r.Intn(5))
		for i := range outs[c] {
			outs[c][i] = b.Net("")
			nets = append(nets, outs[c][i])
		}
	}
	read := make([]bool, len(nets))
	for c := 0; c < cells; c++ {
		ins := make([]hypergraph.NetID, r.Intn(6))
		for j := range ins {
			switch k := r.Intn(8); {
			case k == 0:
				ins[j] = hypergraph.NilNet
			case k == 1:
				ins[j] = outs[c][r.Intn(len(outs[c]))]
			case k == 2 && j > 0:
				ins[j] = ins[r.Intn(j)]
			case k <= 4:
				ins[j] = nets[r.Intn(min(len(nets), 6))]
			default:
				ins[j] = nets[r.Intn(len(nets))]
			}
			if ins[j] != hypergraph.NilNet {
				read[ins[j]] = true
			}
		}
		dep := make([][]int, len(outs[c]))
		for i := range dep {
			dep[i] = make([]int, len(ins))
			for j := range ins {
				if ins[j] != hypergraph.NilNet && r.Intn(3) > 0 {
					dep[i][j] = 1
				}
			}
		}
		b.AddCell(hypergraph.CellSpec{Inputs: ins, Outputs: outs[c], DepBits: dep, Area: 1 + r.Intn(3)})
	}
	// Every net needs a sink: unread primary inputs feed one extra
	// cell, unread cell outputs become primary outputs.
	var unreadIn []hypergraph.NetID
	for n, ok := range read {
		if ok {
			continue
		}
		if id := hypergraph.NetID(n); n < numIn {
			unreadIn = append(unreadIn, id)
		} else {
			b.MarkOutput(id)
		}
	}
	if len(unreadIn) > 0 {
		b.AddCell(hypergraph.CellSpec{Inputs: unreadIn, Outputs: []hypergraph.NetID{b.OutputNet("")}})
	}
	return b.MustBuild()
}

// candidateMoves lists every move the state admits: both unreplications
// of a replicated cell; the single move and every proper non-empty carry
// mask (not only the Splits table) of an unreplicated one.
func candidateMoves(s *State) []Move {
	var moves []Move
	for ci := range s.g.Cells {
		c := hypergraph.CellID(ci)
		if s.repl[c] {
			moves = append(moves, Move{Cell: c, Kind: Unreplicate, To: 0}, Move{Cell: c, Kind: Unreplicate, To: 1})
			continue
		}
		moves = append(moves, Move{Cell: c, Kind: SingleMove})
		for carry := uint32(1); carry < s.all[c]; carry++ {
			moves = append(moves, Move{Cell: c, Kind: Replicate, Carry: carry})
		}
	}
	return moves
}

// checkSplitGains diffs SplitGains against the reference for every
// split of every unreplicated multi-output cell.
func checkSplitGains(t *testing.T, s *State, at string) {
	t.Helper()
	var buf [MaxSplits]int
	for ci := range s.g.Cells {
		c := hypergraph.CellID(ci)
		if s.repl[c] {
			continue
		}
		gains := s.SplitGains(c, buf[:])
		splits := s.Splits(c)
		if len(gains) != len(splits) {
			t.Fatalf("%s: cell %d: %d split gains for %d splits", at, c, len(gains), len(splits))
		}
		for i, carry := range splits {
			m := Move{Cell: c, Kind: Replicate, Carry: carry}
			if want, err := referenceGain(s, m); err != nil || gains[i] != want {
				t.Fatalf("%s: SplitGains %v = %d, reference %d (err %v)", at, m, gains[i], want, err)
			}
		}
	}
}

// checkGainWalk builds a random state on a random netlist and walks it
// through random moves and undos. At every step each candidate move's
// Gain and every split's SplitGains entry must equal the reference,
// every applied move's LastTouched the reference order, and
// CheckInvariants (which diffs the maintained single-move gains against
// Gain) must hold. Single moves and their undos take the streamed
// whole-cell commit.
func checkGainWalk(t *testing.T, seed int64, cells int, pinned bool) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g := randomNetlist(r, cells)
	assign := make([]Block, g.NumCells())
	for i := range assign {
		assign[i] = Block(r.Intn(2))
	}
	s, err := NewStatePinned(g, assign, pinned)
	if err != nil {
		t.Fatal(err)
	}
	s.PrepareSplitGains()
	var toks []Token
	for step := 0; step < 40; step++ {
		at := fmt.Sprintf("seed %d step %d", seed, step)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		moves := candidateMoves(s)
		for _, m := range moves {
			got, err := s.Gain(m)
			want, werr := referenceGain(s, m)
			if err != nil || werr != nil || got != want {
				t.Fatalf("%s: Gain(%v) = %d (err %v), reference %d (err %v)", at, m, got, err, want, werr)
			}
		}
		checkSplitGains(t, s, at)
		if len(toks) > 0 && r.Intn(5) == 0 {
			k := r.Intn(len(toks))
			if err := s.Undo(toks[k]); err != nil {
				t.Fatal(err)
			}
			toks = toks[:k]
			continue
		}
		// Single moves half the time: they take the adjacency-streaming
		// commit, whose touched order must match the reference.
		m := moves[r.Intn(len(moves))]
		if r.Intn(2) == 0 {
			c := hypergraph.CellID(r.Intn(g.NumCells()))
			if !s.repl[c] {
				m = Move{Cell: c, Kind: SingleMove}
			}
		}
		want := referenceTouched(s, m)
		tok, err := s.Apply(m)
		if err != nil {
			t.Fatal(err)
		}
		toks = append(toks, tok)
		got := s.LastTouched()
		if len(got) != len(want) {
			t.Fatalf("seed %d step %d: %v touched %v, reference %v", seed, step, m, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d step %d: %v touched %v, reference %v", seed, step, m, got, want)
			}
		}
	}
	if err := s.Undo(0); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("seed %d after undo: %v", seed, err)
	}
}

func TestGainMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		checkGainWalk(t, seed, 1+int(seed)%20, seed%2 == 1)
	}
}

func FuzzGain(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0))
	f.Add(int64(2), uint8(20), uint8(1))
	f.Add(int64(3), uint8(3), uint8(2))
	f.Add(int64(4), uint8(14), uint8(3))
	// Bit 0 of mode pins the external nets; the other bits are unused.
	f.Fuzz(func(t *testing.T, seed int64, cells, mode uint8) {
		checkGainWalk(t, seed, 1+int(cells)%24, mode&1 != 0)
	})
}

// Gain, SingleGain and SplitGains only read the state, so concurrent
// readers over a frozen state must agree with the serial answers — the
// contract the parallel proposal phase relies on. Run with -race.
func TestGainConcurrentReaders(t *testing.T) {
	st := randomState(t, 9, 120)
	st.PrepareSplitGains()
	r := rand.New(rand.NewSource(9))
	for step := 0; step < 40; step++ { // roughen the state first
		if _, err := st.Apply(randomMove(r, st)); err != nil {
			t.Fatal(err)
		}
	}
	moves := candidateMoves(st)
	want := make([]int, len(moves))
	for i, m := range moves {
		want[i] = st.MustGain(m)
	}
	wantSplit := make([][]int, len(st.g.Cells))
	splits := 0
	for ci := range wantSplit {
		c := hypergraph.CellID(ci)
		if st.repl[c] {
			continue
		}
		for _, carry := range st.Splits(c) {
			wantSplit[c] = append(wantSplit[c], st.MustGain(Move{Cell: c, Kind: Replicate, Carry: carry}))
			splits++
		}
	}
	if splits == 0 {
		t.Fatal("no unreplicated multi-output cell to read split gains of")
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf [MaxSplits]int
			for i := w; i < len(moves); i += workers {
				m := moves[i]
				if g, err := st.Gain(m); err != nil || g != want[i] {
					t.Errorf("%v: concurrent gain %d (err %v), serial %d", m, g, err, want[i])
				}
				if m.Kind != SingleMove {
					continue
				}
				if g := st.SingleGain(m.Cell); g != want[i] {
					t.Errorf("%v: concurrent single gain %d, serial %d", m, g, want[i])
				}
				for j, g := range st.SplitGains(m.Cell, buf[:]) {
					if g != wantSplit[m.Cell][j] {
						t.Errorf("cell %d split %d: concurrent split gain %d, serial %d", m.Cell, j, g, wantSplit[m.Cell][j])
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

package kway

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/library"
	"fpgapart/internal/topology"
	"fpgapart/internal/verify"
)

// spanRecount scores parts placed in slot order from scratch: each
// net's Steiner span over the slots whose parts carry its name.
func spanRecount(b *topology.Board, parts []Part) int {
	spans := make(map[string]topology.SlotSet)
	for slot, p := range parts {
		for ni := range p.Graph.Nets {
			spans[p.Graph.Nets[ni].Name] = spans[p.Graph.Nets[ni].Name].Add(slot)
		}
	}
	total := 0
	for _, s := range spans {
		total += b.SpanCost(s)
	}
	return total
}

func partGraphs(parts []Part) []*hypergraph.Graph {
	graphs := make([]*hypergraph.Graph, len(parts))
	for i := range parts {
		graphs[i] = parts[i].Graph
	}
	return graphs
}

// carveOrder runs one attempt's carve and returns its parts in carve
// order, with their graphs built.
func carveOrder(t *testing.T, g *hypergraph.Graph, opts Options, seed int64, sc *carveScratch) ([]Part, error) {
	t.Helper()
	opts, err := opts.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partitionOnce(context.Background(), g, opts, 0, seed, sc)
	if err != nil {
		return nil, err
	}
	if err := buildParts(g, parts); err != nil {
		t.Fatal(err)
	}
	return parts, nil
}

// Up to eight parts, place is the exhaustive search: it must land on
// the cheapest assignment that passes verify.Routing, found here by
// brute force: every assignment ranked by a from-scratch recount, then
// checked with the verifier in that order. On this board the cheapest
// assignment of one attempt overflows a link while a dearer one
// routes, and two attempts have no assignment that routes.
func TestPlaceIsCheapestRoutedAssignment(t *testing.T) {
	g, err := bench.Generate(bench.Params{Cells: 1000, PrimaryIn: 40, PrimaryOut: 20, Clustering: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	board, err := topology.ParseSpec("mesh:2x4:40")
	if err != nil {
		t.Fatal(err)
	}
	var sc carveScratch
	fallbacks, unroutable := 0, 0
	for seed := int64(1); seed < 9; seed++ {
		parts, err := carveOrder(t, g, Options{Board: board}, seed, &sc)
		if err != nil || len(parts) > 6 {
			continue // more parts than slots, or too many to brute-force quickly
		}
		carve := slices.Clone(parts)
		type ranked struct {
			cost   int
			placed []Part
		}
		var all []ranked
		perm := make([]int, len(parts))
		for p := range perm {
			perm[p] = p
		}
		for ok := true; ok; ok = nextPerm(perm) {
			placed := make([]Part, len(parts))
			for p, s := range perm {
				placed[s] = carve[p]
			}
			all = append(all, ranked{spanRecount(board, placed), placed})
		}
		slices.SortStableFunc(all, func(a, b ranked) int { return a.cost - b.cost })
		want := -1
		for _, r := range all {
			if verify.Routing(board, partGraphs(r.placed)) == nil {
				want = r.cost
				break
			}
		}
		got, err := place(board, g, parts, &sc.place)
		if want < 0 {
			if err == nil {
				t.Fatalf("seed %d: no assignment routes, place returned cost %d", seed, got)
			}
			unroutable++
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got != want || spanRecount(board, parts) != got {
			t.Fatalf("seed %d: place cost %d (recount %d), cheapest routed assignment %d", seed, got, spanRecount(board, parts), want)
		}
		if err := verify.Routing(board, partGraphs(parts)); err != nil {
			t.Fatalf("seed %d: placed parts fail routing: %v", seed, err)
		}
		if want > all[0].cost {
			fallbacks++
		}
	}
	if fallbacks == 0 || unroutable == 0 {
		t.Fatalf("%d attempts placed past an overflowing cheapest assignment, %d unroutable; want both > 0", fallbacks, unroutable)
	}
}

// Beyond eight parts, place runs the pairwise-swap descent: its cost is
// below the carve order's, equals a from-scratch recount and routes,
// and a full search through it verifies and does not depend on the
// worker count.
func TestPlaceDescentBeyondExhaustive(t *testing.T) {
	g, err := bench.Generate(bench.Params{Cells: 300, PrimaryIn: 24, PrimaryOut: 12, Clustering: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	board, err := topology.ParseSpec("mesh:3x4:1048576")
	if err != nil {
		t.Fatal(err)
	}
	// XC3020 alone, the smallest device, carves this circuit into nine
	// or more parts.
	opts := Options{Library: library.Library{Devices: library.XC3000().Devices[:1]}, Board: board, Seed: 5, Solutions: 4}
	var sc carveScratch
	parts, err := carveOrder(t, g, opts, opts.Seed, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) <= exhaustiveParts {
		t.Fatalf("%d parts, want more than %d", len(parts), exhaustiveParts)
	}
	carveCost := spanRecount(board, parts)
	got, err := place(board, g, parts, &sc.place)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d parts: descent cost %d, carve order %d", len(parts), got, carveCost)
	// On this instance the descent improves on carve order (364 < 457).
	if got >= carveCost || got != spanRecount(board, parts) {
		t.Fatalf("descent cost %d (recount %d), carve order %d", got, spanRecount(board, parts), carveCost)
	}
	if err := verify.Routing(board, partGraphs(parts)); err != nil {
		t.Fatal(err)
	}

	render := func(res Result) string {
		var sb strings.Builder
		for _, p := range res.Parts {
			sb.WriteString(p.Device.Name + "\n")
			if err := hypergraph.Write(&sb, p.Graph); err != nil {
				t.Fatal(err)
			}
		}
		return sb.String()
	}
	var first string
	for _, workers := range []int{1, 2} {
		o := opts
		o.Workers = workers
		res, err := Partition(g, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Parts) <= exhaustiveParts {
			t.Fatalf("workers=%d: %d parts, want more than %d", workers, len(res.Parts), exhaustiveParts)
		}
		if res.Summary.TopoCost != spanRecount(board, res.Parts) {
			t.Fatalf("workers=%d: TopoCost %d, recount %d", workers, res.Summary.TopoCost, spanRecount(board, res.Parts))
		}
		if err := verify.Routing(board, partGraphs(res.Parts)); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := res.Verify(g); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if r := render(res); first == "" {
			first = r
		} else if r != first {
			t.Fatal("Workers 1 and 2 return different results")
		}
	}
}

// twoPassPlace is the placement as two searches, kept as a reference
// for place's single walk. The first search finds the cheapest
// assignment, as place's does; when that one overflows a link, a
// second search finds the cheapest that routes: up to exhaustiveParts
// parts it ranks every assignment by (cost, lexicographic order) and
// checks them in turn, beyond it undoes the descent's kept swaps from
// the end. It returns the cost, each carve-order part's slot, and
// whether the second search ran; it leaves parts as they are.
func twoPassPlace(b *topology.Board, g *hypergraph.Graph, parts []Part, pl *placer) (cost int, slots []int, fellBack bool, err error) {
	k := len(parts)
	pl.bind(b)
	pl.groupNets(g, parts)
	perm := make([]int, k)
	for p := range perm {
		perm[p] = p
	}
	var swaps [][2]int
	cost = pl.cost(perm)
	best := slices.Clone(perm)
	if k <= exhaustiveParts {
		for nextPerm(perm) {
			if c := pl.cost(perm); c < cost {
				cost = c
				copy(best, perm)
			}
		}
	} else {
		for improved := true; improved; {
			improved = false
			for i := range perm {
				for j := i + 1; j < k; j++ {
					perm[i], perm[j] = perm[j], perm[i]
					if c := pl.cost(perm); c < cost {
						cost = c
						swaps = append(swaps, [2]int{i, j})
						improved = true
					} else {
						perm[i], perm[j] = perm[j], perm[i]
					}
				}
			}
		}
		copy(best, perm)
	}
	if pl.fits(best) {
		return cost, best, false, nil
	}
	pl.cheapest = slices.Clone(best)
	if k <= exhaustiveParts {
		// Four bits a slot, first part most significant: packed order
		// is lexicographic order.
		pack := func(perm []int) uint64 {
			var v uint64
			for _, s := range perm {
				v = v<<4 | uint64(s)
			}
			return v
		}
		var keys []uint64
		for p := range perm {
			perm[p] = p
		}
		for ok := true; ok; ok = nextPerm(perm) {
			keys = append(keys, uint64(pl.cost(perm))<<32|pack(perm))
		}
		slices.Sort(keys)
		for _, key := range keys[1:] {
			v := uint32(key)
			for i := k - 1; i >= 0; i-- {
				best[i] = int(v & 15)
				v >>= 4
			}
			if pl.fits(best) {
				return int(key >> 32), best, true, nil
			}
		}
	} else {
		for n := len(swaps) - 1; n >= 0; n-- {
			s := swaps[n]
			perm[s[0]], perm[s[1]] = perm[s[1]], perm[s[0]]
			if pl.fits(perm) {
				return pl.cost(perm), perm, true, nil
			}
		}
	}
	return 0, nil, true, fmt.Errorf("kway: board %s: no placement of %d parts routes: %w", b.Name, k, pl.routeError(g, parts))
}

// place walks each mode once, keeping the cheapest assignment and the
// cheapest that fits side by side. It must agree with twoPassPlace in
// cost, slot order and error text on the instances where the two-pass
// placement needs its second search: an assignment that routes only
// past the cheapest one, and no assignment that routes, on each side
// of exhaustiveParts.
func TestPlaceMatchesTwoPass(t *testing.T) {
	small := bench.Params{Cells: 280, PrimaryIn: 24, PrimaryOut: 12, Clustering: 0.5, Seed: 1}
	large := bench.Params{Cells: 1000, PrimaryIn: 40, PrimaryOut: 20, Clustering: 0.5, Seed: 3}
	xc3020 := library.Library{Devices: library.XC3000().Devices[:1]}
	cases := []struct {
		name    string
		circuit bench.Params
		lib     library.Library
		board   string
		seed    int64
		descent bool // more than exhaustiveParts parts
		routes  bool
	}{
		{"descent-fallback", small, xc3020, "mesh:4x4:55", 4, true, true},
		{"descent-unroutable", small, xc3020, "mesh:4x4:55", 2, true, false},
		{"exhaustive-fallback", large, library.Library{}, "mesh:2x4:40", 3, false, true},
		{"exhaustive-unroutable", large, library.Library{}, "mesh:2x4:40", 2, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := bench.Generate(tc.circuit)
			if err != nil {
				t.Fatal(err)
			}
			board, err := topology.ParseSpec(tc.board)
			if err != nil {
				t.Fatal(err)
			}
			var sc carveScratch
			parts, err := carveOrder(t, g, Options{Library: tc.lib, Board: board}, tc.seed, &sc)
			if err != nil {
				t.Fatal(err)
			}
			if k := len(parts); (k > exhaustiveParts) != tc.descent {
				t.Fatalf("%d parts: descent %v, want %v", k, k > exhaustiveParts, tc.descent)
			}
			var ref placer
			wantCost, wantSlots, fellBack, wantErr := twoPassPlace(board, g, parts, &ref)
			if !fellBack || (wantErr == nil) != tc.routes {
				t.Fatalf("reference: second search %v, error %v; want a second search that routes: %v", fellBack, wantErr, tc.routes)
			}
			carve := slices.Clone(parts)
			got, err := place(board, g, parts, &sc.place)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("place error\n%v\nwant\n%v", err, wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != wantCost {
				t.Fatalf("place cost %d, reference %d", got, wantCost)
			}
			for p, s := range wantSlots {
				if parts[s].depth != carve[p].depth {
					t.Fatalf("slot %d holds part %d, reference puts part %d there", s, parts[s].depth, carve[p].depth)
				}
			}
			if err := verify.Routing(board, partGraphs(parts)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

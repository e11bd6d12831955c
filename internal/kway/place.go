package kway

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"fpgapart/internal/hypergraph"
	"fpgapart/internal/topology"
	"fpgapart/internal/verify"
)

// exhaustiveParts is the largest part count whose slot assignments are
// all enumerated (8! = 40320); more parts are placed by pairwise-swap
// descent.
const exhaustiveParts = 8

// spanTableBits bounds the precomputed per-set tables: SpanCost and
// RouteSpan are tabled for every set of the board's first
// min(Slots, spanTableBits) slots, which covers every placement of up
// to that many parts. Larger sets are computed directly.
const spanTableBits = 12

// placer is one worker's placement storage, reused across attempts:
// the board's span table, the parts' net groups and the permutation
// buffers. Once the worker is warm, a placement allocates only for a
// route's first use.
type placer struct {
	board *topology.Board
	// span[set] is board.SpanCost(set) for every set below len(span);
	// routeOf[set] its RouteSpan, filled on first use.
	span    []int32
	routeOf [][]int
	// netMask holds, per source net, the parts it touches (zero at
	// rest), and touched the nets with a mark; counts[i] is the number
	// of nets touching exactly the parts in masks[i]. Only nets touching
	// two or more parts are grouped: a net inside one part costs
	// nothing wherever it sits.
	netMask []uint64
	touched []hypergraph.NetID
	nets    []hypergraph.NetID
	masks   []uint64
	counts  []int
	// perm[p] is part p's slot. Of the candidates offered so far,
	// cheapest is the first of least cost, at cost least, and best the
	// first of least cost that fits, at cost routed (math.MaxInt: none).
	perm, best, cheapest []int
	least, routed        int
	loads                []int
	parts                []Part
}

// bind re-tables the span costs when the board changes.
func (pl *placer) bind(b *topology.Board) {
	if pl.board == b {
		return
	}
	pl.board = b
	n := 1 << min(b.Slots, spanTableBits)
	pl.span = slices.Grow(pl.span[:0], n)[:n]
	for set := range pl.span {
		pl.span[set] = int32(b.SpanCost(topology.SlotSet(set)))
	}
	pl.routeOf = slices.Grow(pl.routeOf[:0], n)[:n]
	clear(pl.routeOf)
}

func (pl *placer) spanCost(set topology.SlotSet) int {
	if uint64(set) < uint64(len(pl.span)) {
		return int(pl.span[set])
	}
	return pl.board.SpanCost(set)
}

func (pl *placer) route(set topology.SlotSet) []int {
	if uint64(set) >= uint64(len(pl.routeOf)) {
		return pl.board.RouteSpan(set)
	}
	if pl.routeOf[set] == nil {
		pl.routeOf[set] = pl.board.RouteSpan(set)
	}
	return pl.routeOf[set]
}

// groupNets counts, per set of parts, the nets of g that touch exactly
// those parts, read from the parts' cell lists: a part touches the
// nets its copies have pins on. A part's graph keeps those nets'
// source names, which is how verify.Routing joins a net across parts.
func (pl *placer) groupNets(g *hypergraph.Graph, parts []Part) {
	pl.netMask = slices.Grow(pl.netMask[:0], len(g.Nets))[:len(g.Nets)]
	pl.touched = pl.touched[:0]
	for p := range parts {
		for _, c := range parts[p].cells {
			pl.nets = appendNets(pl.nets[:0], &g.Cells[c.cell], c.outs)
			for _, n := range pl.nets {
				if pl.netMask[n] == 0 {
					pl.touched = append(pl.touched, n)
				}
				pl.netMask[n] |= 1 << uint(p)
			}
		}
	}
	pl.masks = pl.masks[:0]
	for _, n := range pl.touched {
		if m := pl.netMask[n]; bits.OnesCount64(m) >= 2 {
			pl.masks = append(pl.masks, m)
		}
		pl.netMask[n] = 0
	}
	slices.Sort(pl.masks)
	pl.counts = pl.counts[:0]
	n := 0
	for _, m := range pl.masks {
		if n > 0 && m == pl.masks[n-1] {
			pl.counts[n-1]++
			continue
		}
		pl.masks[n] = m
		pl.counts = append(pl.counts, 1)
		n++
	}
	pl.masks = pl.masks[:n]
}

// image maps a set of parts to the set of slots perm puts them on.
func image(m uint64, perm []int) topology.SlotSet {
	var s topology.SlotSet
	for ; m != 0; m &= m - 1 {
		s = s.Add(perm[bits.TrailingZeros64(m)])
	}
	return s
}

// cost is the placement's hop-weighted interconnect: Σ over nets of the
// Steiner span of the slots the net touches.
func (pl *placer) cost(perm []int) int {
	total := 0
	for i, m := range pl.masks {
		total += pl.counts[i] * pl.spanCost(image(m, perm))
	}
	return total
}

// fits reports whether the placement's per-link net load stays
// within every link's capacity. It is verify.Routing's load count over
// the net groups, so a placement fits exactly when its parts' graphs
// pass verify.Routing (Options.Verify checks that they do).
func (pl *placer) fits(perm []int) bool {
	links := pl.board.Links
	pl.loads = slices.Grow(pl.loads[:0], len(links))[:len(links)]
	clear(pl.loads)
	for i, m := range pl.masks {
		for _, li := range pl.route(image(m, perm)) {
			pl.loads[li] += pl.counts[i]
			if pl.loads[li] > links[li].Capacity {
				return false
			}
		}
	}
	return true
}

// place reorders parts so that Parts[i] sits on board slot i, choosing
// the slot assignment of the parts over slots 0..k−1 with the least
// hop-weighted interconnect that routes (fits, verify.Routing's load
// count), and returns its cost. Up to exhaustiveParts parts every assignment is a
// candidate; beyond, the candidates are the assignments a pairwise-swap
// descent from carve order passes through. Equal costs go to the
// lexicographically first assignment, so the result is deterministic.
// There are at most b.Slots parts (partitionOnce stops an attempt
// before it carves more).
func place(b *topology.Board, g *hypergraph.Graph, parts []Part, pl *placer) (int, error) {
	k := len(parts)
	pl.bind(b)
	pl.groupNets(g, parts)
	pl.perm = slices.Grow(pl.perm[:0], k)[:k]
	pl.best = slices.Grow(pl.best[:0], k)[:k]
	pl.cheapest = slices.Grow(pl.cheapest[:0], k)[:k]
	pl.least, pl.routed = math.MaxInt, math.MaxInt
	for p := range pl.perm {
		pl.perm[p] = p
	}
	if k <= exhaustiveParts {
		for ok := true; ok; ok = nextPerm(pl.perm) {
			pl.offer(pl.cost(pl.perm))
		}
	} else {
		pl.descend()
	}
	if pl.routed == math.MaxInt {
		return 0, fmt.Errorf("kway: board %s: no placement of %d parts routes: %w", b.Name, k, pl.routeError(g, parts))
	}
	pl.parts = append(pl.parts[:0], parts...)
	for p, s := range pl.best {
		parts[s] = pl.parts[p]
	}
	clear(pl.parts)
	return pl.routed, nil
}

// offer considers the assignment in pl.perm, of cost c. It becomes the
// cheapest when it costs less than every earlier candidate, and the
// best when it costs less than every earlier candidate that fits and
// fits itself; the load count runs only on a candidate that costs less
// than the best.
func (pl *placer) offer(c int) {
	if c < pl.least {
		pl.least = c
		copy(pl.cheapest, pl.perm)
	}
	if c < pl.routed && pl.fits(pl.perm) {
		pl.routed = c
		copy(pl.best, pl.perm)
	}
}

// routeError is the error verify.Routing reports for the parts placed
// by the cheapest assignment: each slot's nets listed, from its part's
// cells, in the order the part's graph numbers them. Only a failed
// attempt reports it.
func (pl *placer) routeError(g *hypergraph.Graph, parts []Part) error {
	nets := make([][]string, len(parts))
	seen := make([]int32, len(g.Nets)) // per net: slot+1 of the last part listing it
	for p, s := range pl.cheapest {
		for _, c := range parts[p].cells {
			pl.nets = appendNets(pl.nets[:0], &g.Cells[c.cell], c.outs)
			for _, n := range pl.nets {
				if seen[n] != int32(s+1) {
					seen[n] = int32(s + 1)
					nets[s] = append(nets[s], g.Nets[n].Name)
				}
			}
		}
	}
	return verify.RoutingNets(pl.board, nets)
}

// descend runs pairwise-swap descent from the identity in pl.perm:
// pairs (i, j) in a fixed order, each swap kept when it lowers the
// cost, until a full sweep keeps none. It offers the identity and the
// assignment after each kept swap, so every candidate is cheaper than
// the ones before it: the end is the cheapest, and the last that fits
// is the best.
func (pl *placer) descend() {
	cost := pl.cost(pl.perm)
	pl.offer(cost)
	for improved := true; improved; {
		improved = false
		for i := range pl.perm {
			for j := i + 1; j < len(pl.perm); j++ {
				pl.perm[i], pl.perm[j] = pl.perm[j], pl.perm[i]
				if c := pl.cost(pl.perm); c < cost {
					cost = c
					pl.offer(c)
					improved = true
				} else {
					pl.perm[i], pl.perm[j] = pl.perm[j], pl.perm[i]
				}
			}
		}
	}
}

// nextPerm advances perm to its lexicographic successor and reports
// whether there was one.
func nextPerm(perm []int) bool {
	i := len(perm) - 2
	for i >= 0 && perm[i] >= perm[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(perm) - 1
	for perm[j] <= perm[i] {
		j--
	}
	perm[i], perm[j] = perm[j], perm[i]
	slices.Reverse(perm[i+1:])
	return true
}

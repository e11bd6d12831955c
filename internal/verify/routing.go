package verify

import (
	"fmt"
	"strings"

	"fpgapart/internal/hypergraph"
	"fpgapart/internal/topology"
)

// RouteError reports a board link whose routed net load exceeds its
// capacity. It is the typed failure of Routing: LinkIndex/Link name
// the offending link, Load the number of nets routed over it, and
// Nets the offending net names in deterministic (first-seen) order.
type RouteError struct {
	LinkIndex int
	Link      topology.Link
	Load      int
	Nets      []string
}

func (e *RouteError) Error() string {
	shown := e.Nets
	suffix := ""
	if len(shown) > 8 {
		suffix = fmt.Sprintf(", +%d more", len(shown)-8)
		shown = shown[:8]
	}
	return fmt.Sprintf("verify: link %d–%d overloaded: %d nets > capacity %d (%s%s)",
		e.Link.A, e.Link.B, e.Load, e.Link.Capacity, strings.Join(shown, ", "), suffix)
}

// LinkLoads routes every multi-slot net of the partition over the
// board and returns the per-link net load, indexed like b.Links. Part
// i occupies board slot i; a net's load is one unit on every link of
// the deterministic route tree spanning the slots it touches
// (topology.RouteSpan). Single-slot nets consume no link capacity.
func LinkLoads(b *topology.Board, parts []*hypergraph.Graph) []int {
	loads, _ := routeAll(b, parts, false)
	return loads
}

// Routing is the routing-feasibility check of a k-way solution placed
// on a board topology: every net spanning more than one part is routed
// over the board (part i = slot i), and every link's accumulated net
// load must stay within its capacity. The first overloaded link (in
// link-index order) is reported as a *RouteError naming the link and
// the nets routed over it. The k-way search runs it on the slot
// assignment it places a finished solution by, and moves on to the
// next cheapest assignment when it fails.
func Routing(b *topology.Board, parts []*hypergraph.Graph) error {
	if len(parts) > b.Slots {
		return fmt.Errorf("verify: %d parts exceed board %s's %d slots", len(parts), b.Name, b.Slots)
	}
	loads, nets := routeAll(b, parts, true)
	for li, load := range loads {
		if load > b.Links[li].Capacity {
			return &RouteError{LinkIndex: li, Link: b.Links[li], Load: load, Nets: nets[li]}
		}
	}
	return nil
}

// routeAll computes per-link loads; with names it also records the net
// names per link for error reporting. Nets are visited in part order
// then net-index order, deduplicated by name, so both outputs are
// deterministic.
func routeAll(b *topology.Board, parts []*hypergraph.Graph, names bool) ([]int, [][]string) {
	spans := make(map[string]topology.SlotSet)
	var order []string
	for slot, p := range parts {
		for ni := range p.Nets {
			name := p.Nets[ni].Name
			if _, seen := spans[name]; !seen {
				order = append(order, name)
			}
			spans[name] = spans[name].Add(slot)
		}
	}
	loads := make([]int, len(b.Links))
	var perLink [][]string
	if names {
		perLink = make([][]string, len(b.Links))
	}
	for _, name := range order {
		span := spans[name]
		if span.Count() < 2 {
			continue
		}
		for _, li := range b.RouteSpan(span) {
			loads[li]++
			if names {
				perLink[li] = append(perLink[li], name)
			}
		}
	}
	return loads, perLink
}

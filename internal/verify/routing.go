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
	loads, _ := routeAll(b, partNetNames(parts), false)
	return loads
}

// partNetNames lists each part's net names in net-index order.
func partNetNames(parts []*hypergraph.Graph) [][]string {
	names := make([][]string, len(parts))
	for i, p := range parts {
		for ni := range p.Nets {
			names[i] = append(names[i], p.Nets[ni].Name)
		}
	}
	return names
}

// Routing is the routing-feasibility check of a k-way solution placed
// on a board topology: every net spanning more than one part is routed
// over the board (part i = slot i), and every link's accumulated net
// load must stay within its capacity. The first overloaded link (in
// link-index order) is reported as a *RouteError naming the link and
// the nets routed over it. The k-way search places a finished
// solution by the same load count over its parts' nets, reports
// RoutingNets' error when no slot assignment routes, and runs Routing
// on every board solution under its Verify option.
func Routing(b *topology.Board, parts []*hypergraph.Graph) error {
	return RoutingNets(b, partNetNames(parts))
}

// RoutingNets is Routing on the parts' net names alone: nets[i] lists
// the names of part i's nets in net-index order, which is all Routing
// reads of a part.
func RoutingNets(b *topology.Board, nets [][]string) error {
	if len(nets) > b.Slots {
		return fmt.Errorf("verify: %d parts exceed board %s's %d slots", len(nets), b.Name, b.Slots)
	}
	loads, names := routeAll(b, nets, true)
	for li, load := range loads {
		if load > b.Links[li].Capacity {
			return &RouteError{LinkIndex: li, Link: b.Links[li], Load: load, Nets: names[li]}
		}
	}
	return nil
}

// routeAll computes per-link loads; with names it also records the net
// names per link for error reporting. Nets are visited in part order
// then net-index order, deduplicated by name, so both outputs are
// deterministic.
func routeAll(b *topology.Board, parts [][]string, names bool) ([]int, [][]string) {
	spans := make(map[string]topology.SlotSet)
	var order []string
	for slot, p := range parts {
		for _, name := range p {
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

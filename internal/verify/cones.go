package verify

import (
	"wcm3d/internal/netlist"
)

// The cone walks below share nothing with the optimizer's BitSet/ConeSet
// machinery: a breadth-first walk over the netlist's gates into a signal
// list instead of bit vectors, a marked-slice count instead of word
// algebra, and the traversal rules transcribed from the paper rather than
// from internal/netlist's cone code. An error in the optimizer's masks,
// word indexes or dense rows therefore cannot repeat itself here. The
// walks are still cheap: one visited slice, as long as the netlist, serves
// every walk and overlap count of a run — each unmarks what it marked — so
// a cone costs what it holds, not a fresh set per member.

// naiveFaninCone collects every signal that can influence the anchor
// through combinational logic, in walk order. The walk expands
// backwards through gate fan-ins and stops at sources (primary inputs, TSV
// pads, constants) and at flip-flop outputs other than the anchor itself —
// those are the sequential and interface boundaries of the cone; the
// boundary signals themselves are part of the cone. seen must be all false
// and is left so.
func naiveFaninCone(n *netlist.Netlist, anchor netlist.SignalID, seen []bool) []netlist.SignalID {
	cone := []netlist.SignalID{anchor}
	seen[anchor] = true
	for i := 0; i < len(cone); i++ { // cone doubles as the walk's queue
		s := cone[i]
		t := n.TypeOf(s)
		if t.IsSource() || (t == netlist.GateDFF && s != anchor) {
			continue
		}
		for _, f := range n.Gate(s).Fanin {
			if !seen[f] {
				seen[f] = true
				cone = append(cone, f)
			}
		}
	}
	return unmark(cone, seen)
}

// naiveFanoutCone collects every signal the anchor can influence through
// combinational logic, in walk order. The walk expands forward
// through fan-outs and stops at flip-flops other than the anchor (the
// flip-flop itself is included as the capture boundary). seen must be all
// false and is left so.
func naiveFanoutCone(n *netlist.Netlist, anchor netlist.SignalID, seen []bool) []netlist.SignalID {
	graph := n.Graph()
	cone := []netlist.SignalID{anchor}
	seen[anchor] = true
	for i := 0; i < len(cone); i++ {
		s := cone[i]
		if n.TypeOf(s) == netlist.GateDFF && s != anchor {
			continue
		}
		for _, f := range graph.FanoutOf(s) {
			if !seen[f] {
				seen[f] = true
				cone = append(cone, f)
			}
		}
	}
	return unmark(cone, seen)
}

// unmark clears the walk's marks.
func unmark(cone []netlist.SignalID, seen []bool) []netlist.SignalID {
	for _, s := range cone {
		seen[s] = false
	}
	return cone
}

// maskedOverlap counts the shared members of two cones after masking out
// sources and flip-flops — the same masking Algorithm 1 applies before its
// disjointness test: a shared primary input or a shared upstream flip-flop
// is a fan-out point of the circuit, not shared *combinational* logic, and
// does not alias test responses. It marks a's members in mark, counts b's
// marked ones and unmarks a again: mark must be all false and is left so.
// Every shared gate is also recorded in collect so deep mode can build its
// fault list from the union of all overlaps.
func maskedOverlap(n *netlist.Netlist, a, b []netlist.SignalID, mark []bool, collect map[netlist.SignalID]bool) int {
	for _, s := range a {
		mark[s] = true
	}
	shared := 0
	for _, s := range b {
		if !mark[s] {
			continue
		}
		t := n.TypeOf(s)
		if t.IsSource() || t == netlist.GateDFF {
			continue
		}
		shared++
		if collect != nil {
			collect[s] = true
		}
	}
	unmark(a, mark)
	return shared
}

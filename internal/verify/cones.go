package verify

import "wcm3d/internal/netlist"

// The cone walks below intentionally share nothing with the optimizer's
// BitSet/ConeSet machinery: plain map sets, explicit stacks, the traversal
// rules transcribed from the paper rather than from internal/netlist's
// indexes. They are slower — that is the price of an independent opinion.

// naiveFaninCone collects every signal that can influence the anchor
// through combinational logic. The walk expands backwards through gate
// fan-ins and stops at sources (primary inputs, TSV pads, constants) and at
// flip-flop outputs other than the anchor itself — those are the sequential
// and interface boundaries of the cone; the boundary signals themselves are
// part of the cone.
func naiveFaninCone(n *netlist.Netlist, anchor netlist.SignalID) map[netlist.SignalID]bool {
	cone := map[netlist.SignalID]bool{anchor: true}
	stack := []netlist.SignalID{anchor}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t := n.TypeOf(s)
		if t.IsSource() || (t == netlist.GateDFF && s != anchor) {
			continue
		}
		for _, f := range n.Gate(s).Fanin {
			if !cone[f] {
				cone[f] = true
				stack = append(stack, f)
			}
		}
	}
	return cone
}

// naiveFanoutCone collects every signal the anchor can influence through
// combinational logic. The walk expands forward through fan-outs and stops
// at flip-flops other than the anchor (the flip-flop itself is included as
// the capture boundary).
func naiveFanoutCone(n *netlist.Netlist, anchor netlist.SignalID) map[netlist.SignalID]bool {
	graph := n.Graph()
	cone := map[netlist.SignalID]bool{anchor: true}
	stack := []netlist.SignalID{anchor}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.TypeOf(s) == netlist.GateDFF && s != anchor {
			continue
		}
		for _, f := range graph.FanoutOf(s) {
			if !cone[f] {
				cone[f] = true
				stack = append(stack, f)
			}
		}
	}
	return cone
}

// maskedOverlap counts the shared members of two cones after masking out
// sources and flip-flops — the same masking Algorithm 1 applies before its
// disjointness test: a shared primary input or a shared upstream flip-flop
// is a fan-out point of the circuit, not shared *combinational* logic, and
// does not alias test responses. Every shared gate is also recorded in
// collect so deep mode can build its fault list from the union of all
// overlaps.
func maskedOverlap(n *netlist.Netlist, a, b map[netlist.SignalID]bool, collect map[netlist.SignalID]bool) int {
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	shared := 0
	for s := range small {
		if !large[s] {
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
	return shared
}

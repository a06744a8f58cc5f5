package verify

import (
	"fmt"
	"reflect"
	"slices"

	"wcm3d/internal/netlist"
	"wcm3d/internal/scan"
	"wcm3d/internal/wcm"
)

// The map-based walks below are the verifier's earlier cone code, kept as
// the reference its visited-slice walks and marked-slice overlap count are held to: a fresh
// map per cone, membership by map lookup, overlap by probing the larger
// map with the smaller one's members.

func mapFaninCone(n *netlist.Netlist, anchor netlist.SignalID) map[netlist.SignalID]bool {
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

func mapFanoutCone(n *netlist.Netlist, anchor netlist.SignalID) map[netlist.SignalID]bool {
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

func mapMaskedOverlap(n *netlist.Netlist, a, b map[netlist.SignalID]bool, collect map[netlist.SignalID]bool) int {
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

// sortedKeys lists a map cone in ascending order.
func sortedKeys(cone map[netlist.SignalID]bool) []netlist.SignalID {
	out := make([]netlist.SignalID, 0, len(cone))
	for s := range cone {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// ConeWalksMatchReference compares the visited-slice walks against the map-based
// reference on every inbound TSV pad, outbound port driver and flip-flop
// of n (fan-out and fan-in cones of each, both sides' anchors): the cones
// must hold the same members, and for every pair of consecutive anchors
// the marked-slice overlap must count and collect what the map overlap
// does. Every walk and count must leave the shared visited slice all
// false. It returns the number of cones compared.
func ConeWalksMatchReference(n *netlist.Netlist) (int, error) {
	var anchors []netlist.SignalID
	anchors = append(anchors, n.InboundTSVs()...)
	for _, p := range n.OutboundTSVs() {
		anchors = append(anchors, n.Outputs[p].Signal)
	}
	anchors = append(anchors, n.FlipFlops()...)
	seen := make([]bool, n.NumGates())
	walks := []struct {
		name string
		walk func(netlist.SignalID) []netlist.SignalID
		ref  func(netlist.SignalID) map[netlist.SignalID]bool
	}{
		{"fan-in", func(s netlist.SignalID) []netlist.SignalID { return naiveFaninCone(n, s, seen) },
			func(s netlist.SignalID) map[netlist.SignalID]bool { return mapFaninCone(n, s) }},
		{"fan-out", func(s netlist.SignalID) []netlist.SignalID { return naiveFanoutCone(n, s, seen) },
			func(s netlist.SignalID) map[netlist.SignalID]bool { return mapFanoutCone(n, s) }},
	}
	cones := 0
	for _, w := range walks {
		var prev []netlist.SignalID
		var prevRef map[netlist.SignalID]bool
		for _, s := range anchors {
			got, ref := w.walk(s), w.ref(s)
			members := slices.Clone(got)
			slices.Sort(members)
			if want := sortedKeys(ref); !slices.Equal(members, want) {
				return cones, fmt.Errorf("%s cone of %s: visited-slice walk holds %d members, map walk %d (or different ones)",
					w.name, n.NameOf(s), len(got), len(want))
			}
			cones++
			if prev != nil {
				gotSet, wantSet := map[netlist.SignalID]bool{}, map[netlist.SignalID]bool{}
				g := maskedOverlap(n, prev, got, seen, gotSet)
				want := mapMaskedOverlap(n, prevRef, ref, wantSet)
				if g != want || !reflect.DeepEqual(gotSet, wantSet) {
					return cones, fmt.Errorf("%s overlap ending at %s: marked count %d (%d collected), map %d (%d collected)",
						w.name, n.NameOf(s), g, len(gotSet), want, len(wantSet))
				}
			}
			if i := slices.Index(seen, true); i >= 0 {
				return cones, fmt.Errorf("%s cone of %s left %s marked", w.name, n.NameOf(s), n.NameOf(netlist.SignalID(i)))
			}
			prev, prevRef = got, ref
		}
	}
	return cones, nil
}

// StructuralMatchesReference runs Plan's structural checks on asn twice:
// once on the visited-slice walks and the marked-slice overlap, once on the map-based
// reference. Every overlap the first run takes is also recounted by the
// map overlap. The two runs must agree on Pairs, Groups, ReusedFFs, the
// Violations in order, the overlapping-pair count and the shared-gate set
// deep mode reports the size of. It returns the first run's Result.
func StructuralMatchesReference(in wcm.Input, asn *scan.Assignment, vo Options) (*Result, error) {
	c, err := newChecker(in, asn, vo)
	if err != nil {
		return nil, err
	}
	n := in.Netlist
	var mismatch error
	marked := c.overlap
	c.overlap = func(a, b []netlist.SignalID, collect map[netlist.SignalID]bool) int {
		got := marked(a, b, collect)
		if want := mapMaskedOverlap(n, setOf(a), setOf(b), nil); got != want && mismatch == nil {
			mismatch = fmt.Errorf("maskedOverlap counts %d shared gates, the map reference %d", got, want)
		}
		return got
	}
	if err := c.structural(asn); err != nil {
		return nil, err
	}
	if mismatch != nil {
		return nil, mismatch
	}

	ref, err := newChecker(in, asn, vo)
	if err != nil {
		return nil, err
	}
	refCones := map[*netlist.SignalID]map[netlist.SignalID]bool{}
	keep := func(cone map[netlist.SignalID]bool) []netlist.SignalID {
		s := sortedKeys(cone)
		refCones[&s[0]] = cone
		return s
	}
	ref.fanin = func(s netlist.SignalID) []netlist.SignalID { return keep(mapFaninCone(n, s)) }
	ref.fanout = func(s netlist.SignalID) []netlist.SignalID { return keep(mapFanoutCone(n, s)) }
	ref.overlap = func(a, b []netlist.SignalID, collect map[netlist.SignalID]bool) int {
		return mapMaskedOverlap(n, refCones[&a[0]], refCones[&b[0]], collect)
	}
	if err := ref.structural(asn); err != nil {
		return nil, err
	}

	got, want := c.res, ref.res
	switch {
	case got.Pairs != want.Pairs || got.Groups != want.Groups || got.ReusedFFs != want.ReusedFFs:
		return nil, fmt.Errorf("counts: pairs %d/%d, groups %d/%d, reused %d/%d (walks/map)",
			got.Pairs, want.Pairs, got.Groups, want.Groups, got.ReusedFFs, want.ReusedFFs)
	case !reflect.DeepEqual(got.Violations, want.Violations):
		return nil, fmt.Errorf("violations differ:\n walks %v\n map   %v", got.Violations, want.Violations)
	case c.overlapPairs != ref.overlapPairs:
		return nil, fmt.Errorf("overlapping pairs %d, map reference %d", c.overlapPairs, ref.overlapPairs)
	case !reflect.DeepEqual(c.sharedGates, ref.sharedGates):
		return nil, fmt.Errorf("shared gates %d, map reference %d (or different ones)", len(c.sharedGates), len(ref.sharedGates))
	}
	return got, nil
}

func setOf(cone []netlist.SignalID) map[netlist.SignalID]bool {
	m := make(map[netlist.SignalID]bool, len(cone))
	for _, s := range cone {
		m[s] = true
	}
	return m
}

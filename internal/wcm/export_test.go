package wcm

import (
	"fmt"
	"reflect"

	"wcm3d/internal/netlist"
	"wcm3d/internal/scan"
	"wcm3d/internal/wcmgraph"
)

// SweepKernelCheck runs the WCM flow on in phase by phase, as Run does,
// and before each phase rebuilds that phase's sharing graph on a twin
// runner with the same membership. On every pair the twin's edge sweep
// visits, the production dense-row kernel — one reused row per phase, as
// a sweep worker holds — must agree with the full-width
// IntersectsExcluding / IntersectCountExcluding scans over the unmasked
// cones and the source mask. It returns the number of pairs checked.
func SweepKernelCheck(in Input, opts Options) (pairs int, err error) {
	opts = opts.withDefaults()
	if err := in.validate(opts); err != nil {
		return 0, err
	}
	n := in.Netlist
	available := make(map[netlist.SignalID]bool, len(n.FlipFlops()))
	for _, ff := range n.FlipFlops() {
		available[ff] = true
	}
	asn := &scan.Assignment{}
	first := firstInbound(n, opts.Order)
	for pi, inbound := range [2]bool{first, !first} {
		twinAvail := make(map[netlist.SignalID]bool, len(available))
		for ff, ok := range available {
			twinAvail[ff] = ok
		}
		tw := &phaseRunner{in: in, opts: opts, inbound: inbound, available: twinAvail}
		var stats PhaseStats
		items, _, err := tw.buildGraph(&stats)
		if err != nil {
			return pairs, err
		}
		nNodes := tw.graph.NumAlive()
		cones := make([]*netlist.BitSet, nNodes)
		walker := n.NewConeWalker()
		for id := range cones {
			cones[id] = tw.coneOf(walker, id).Clone()
		}
		dense := tw.sweepRows(len(items))[0]
		for a := 0; a < len(items); a++ {
			ca := cones[a]
			r := tw.newSweepRow(a, dense)
			for b := a + 1; b < nNodes; b++ {
				cb := cones[b]
				got := tw.shared(&r, b)
				// A full-width miss means a full-width count of zero, so
				// the count scan only runs when either side intersects.
				want := 0
				hit := ca.IntersectsExcluding(cb, tw.sourceMask)
				if hit || got > 0 {
					want = ca.IntersectCountExcluding(cb, tw.sourceMask)
				}
				if got != want || (got > 0) != hit {
					return pairs, fmt.Errorf("inbound=%v pair (%d,%d): sparse count %d, full-width %d (intersects %v)",
						inbound, a, b, got, want, hit)
				}
				pairs++
			}
			r.done()
		}
		ph := &phaseRunner{in: in, opts: opts, inbound: inbound, available: available}
		if _, err := ph.run(asn); err != nil {
			return pairs, err
		}
		if pi == 0 && in.RefreshTiming != nil {
			refreshed, err := in.RefreshTiming(asn)
			if err != nil {
				return pairs, err
			}
			if refreshed != nil {
				in.Timing = refreshed
			}
		}
	}
	return pairs, nil
}

// PartitionCheck runs the WCM flow on in phase by phase, as Run does, and
// before each phase partitions a twin of that phase's sharing graph with
// wcmgraph's PartitionScan: Algorithm 2 one pick at a time over the scan
// reference, with the phase's merge test. The phase's own partition must
// make as many merges and edge deletions and leave every node of its graph,
// merge products included, equal to the twin's. A product's members and
// flip-flop name its two parents among the live nodes (items hold distinct
// members, flip-flops distinct signals), so equal nodes mean the same merge
// sequence; only the order of a member-less flip-flop parent is open, and
// it changes nothing. It returns the number of merges checked.
func PartitionCheck(in Input, opts Options) (merges int, err error) {
	opts = opts.withDefaults()
	if err := in.validate(opts); err != nil {
		return 0, err
	}
	n := in.Netlist
	available := make(map[netlist.SignalID]bool, len(n.FlipFlops()))
	for _, ff := range n.FlipFlops() {
		available[ff] = true
	}
	asn := &scan.Assignment{}
	first := firstInbound(n, opts.Order)
	for pi, inbound := range [2]bool{first, !first} {
		twinAvail := make(map[netlist.SignalID]bool, len(available))
		for ff, ok := range available {
			twinAvail[ff] = ok
		}
		tw := &phaseRunner{in: in, opts: opts, inbound: inbound, available: twinAvail}
		var twStats PhaseStats
		if _, _, err := tw.buildGraph(&twStats); err != nil {
			return merges, err
		}
		n0 := tw.graph.NumAlive()
		wantMerges, wantDeletes, err := tw.graph.PartitionScan(tw.mergeFits)
		if err != nil {
			return merges, err
		}
		ph := &phaseRunner{in: in, opts: opts, inbound: inbound, available: available}
		stats, err := ph.run(asn)
		if err != nil {
			return merges, err
		}
		if stats.Merges != wantMerges || stats.EdgeDeletes != wantDeletes {
			return merges, fmt.Errorf("inbound=%v: %d merges and %d edge deletes, the scan loop made %d and %d",
				inbound, stats.Merges, stats.EdgeDeletes, wantMerges, wantDeletes)
		}
		for id := 0; id < n0+wantMerges; id++ {
			if got, want := ph.graph.Node(id), tw.graph.Node(id); !reflect.DeepEqual(*got, *want) {
				return merges, fmt.Errorf("inbound=%v node %d: %+v, the scan loop left %+v", inbound, id, *got, *want)
			}
		}
		merges += wantMerges
		if pi == 0 && in.RefreshTiming != nil {
			refreshed, err := in.RefreshTiming(asn)
			if err != nil {
				return merges, err
			}
			if refreshed != nil {
				in.Timing = refreshed
			}
		}
	}
	return merges, nil
}

// FirstPhaseGraph builds the sharing graph of in's first phase, as Run
// does, and returns it with the phase's merge test.
func FirstPhaseGraph(in Input, opts Options) (*wcmgraph.Graph, func(a, b *wcmgraph.Node) bool, error) {
	opts = opts.withDefaults()
	if err := in.validate(opts); err != nil {
		return nil, nil, err
	}
	available := make(map[netlist.SignalID]bool, len(in.Netlist.FlipFlops()))
	for _, ff := range in.Netlist.FlipFlops() {
		available[ff] = true
	}
	ph := &phaseRunner{in: in, opts: opts, inbound: firstInbound(in.Netlist, opts.Order), available: available}
	var stats PhaseStats
	if _, _, err := ph.buildGraph(&stats); err != nil {
		return nil, nil, err
	}
	return ph.graph, ph.mergeFits, nil
}

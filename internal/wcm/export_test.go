package wcm

import (
	"fmt"

	"wcm3d/internal/netlist"
	"wcm3d/internal/scan"
)

// SweepKernelCheck runs the WCM flow on in phase by phase, as Run does,
// and before each phase rebuilds that phase's sharing graph on a twin
// runner with the same membership. On every pair the twin's edge sweep
// visits, the sparse masked-cone kernel must agree with the full-width
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
		for a := 0; a < len(items); a++ {
			ca := tw.coneOf(a)
			for b := a + 1; b < nNodes; b++ {
				cb := tw.coneOf(b)
				got := tw.nodeMasked[a].IntersectCount(tw.nodeMasked[b])
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

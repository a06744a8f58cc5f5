package experiments

import (
	"testing"

	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
	"wcm3d/internal/wcm"
)

// TestEstimatorAgainstExactATPG validates the structural share-penalty
// estimator the same way the paper validates its thresholds with a
// commercial tool: for TSV pairs with DISJOINT fan-out cones the exact
// coverage loss must be negligible, and for heavily overlapped pairs the
// estimator must flag a cost at least as often as the exact measurement
// shows one.
func TestEstimatorAgainstExactATPG(t *testing.T) {
	d, err := PrepareDie(netgen.ITC99Circuit("b11")[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	n := d.Netlist
	tsvs := n.InboundTSVs()
	cones := netlist.NewConeSet(n, tsvs)
	sourceMask := netlist.NewBitSet(n.NumGates())
	for i := range n.Gates {
		id := netlist.SignalID(i)
		if n.TypeOf(id).IsSource() || n.TypeOf(id) == netlist.GateDFF {
			sourceMask.Set(id)
		}
	}
	budget := ReducedBudget(1)

	var disjoint, overlapped [][2]netlist.SignalID
	for i := 0; i < len(tsvs); i++ {
		for j := i + 1; j < len(tsvs); j++ {
			ov := cones.Fanout(tsvs[i]).IntersectCountExcluding(cones.Fanout(tsvs[j]), sourceMask)
			switch {
			case ov == 0 && len(disjoint) < 3:
				disjoint = append(disjoint, [2]netlist.SignalID{tsvs[i], tsvs[j]})
			case ov >= 10 && len(overlapped) < 3:
				overlapped = append(overlapped, [2]netlist.SignalID{tsvs[i], tsvs[j]})
			}
		}
	}
	if len(disjoint) == 0 {
		t.Fatal("no disjoint TSV pairs on this die")
	}

	for _, p := range disjoint {
		covLoss, _, err := ExactSharePenalty(d, p[0], p[1], budget)
		if err != nil {
			t.Fatal(err)
		}
		// ATPG noise (random phase, compaction) allows small wobble in
		// either direction, but disjoint sharing must not cost real
		// coverage.
		if covLoss > 0.01 {
			t.Errorf("disjoint pair (%s,%s): exact coverage loss %.4f, want ~0",
				n.NameOf(p[0]), n.NameOf(p[1]), covLoss)
		}
	}
	for _, p := range overlapped {
		ov := cones.Fanout(p[0]).IntersectCountExcluding(cones.Fanout(p[1]), sourceMask)
		estCov, estPat := wcm.SharePenalty(n, ov)
		if estCov <= 0 || estPat <= 0 {
			t.Errorf("estimator claims overlapped pair (%d gates shared) is free", ov)
		}
		exactCov, _, err := ExactSharePenalty(d, p[0], p[1], budget)
		if err != nil {
			t.Fatal(err)
		}
		// The estimator must be conservative: at least as pessimistic
		// as the measurement (within ATPG noise).
		if exactCov > estCov+0.02 {
			t.Errorf("pair (%s,%s) overlap %d: exact loss %.4f exceeds estimate %.4f",
				n.NameOf(p[0]), n.NameOf(p[1]), ov, exactCov, estCov)
		}
	}
}

func TestExactSharePenaltyRejectsNonTSVs(t *testing.T) {
	d, err := PrepareDie(netgen.ITC99Circuit("b11")[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	ff := d.Netlist.FlipFlops()[0]
	if _, _, err := ExactSharePenalty(d, ff, ff, ReducedBudget(1)); err == nil {
		t.Error("non-TSV signals must be rejected")
	}
}

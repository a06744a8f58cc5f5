package experiments

import (
	"fmt"

	"wcm3d/internal/netlist"
	"wcm3d/internal/scan"
)

// ExactSharePenalty measures — by running real ATPG, the way the paper's
// flow consults its commercial tool — the testability cost of letting two
// inbound TSVs share one control point: the difference in fault coverage
// and pattern count between the die wrapped with the pair separated and
// the die wrapped with the pair sharing. All other TSVs get dedicated
// cells in both variants, isolating the pair's effect.
//
// This is too slow to run per candidate edge inside graph construction
// (the paper's flow has the same cost profile, which is why cov_th/p_th
// exist as thresholds rather than exact optimization); the reproduction
// uses it to validate the structural estimator (see the test suite).
func ExactSharePenalty(d *Die, tsvA, tsvB netlist.SignalID, budget ATPGBudget) (covLoss float64, patInc int, err error) {
	base := scan.FullWrap(d.Netlist)

	shared := scan.FullWrap(d.Netlist)
	var merged scan.ControlGroup
	var kept []scan.ControlGroup
	for _, g := range shared.Control {
		if g.TSVs[0] == tsvA || g.TSVs[0] == tsvB {
			merged.TSVs = append(merged.TSVs, g.TSVs[0])
			continue
		}
		kept = append(kept, g)
	}
	if len(merged.TSVs) != 2 {
		return 0, 0, fmt.Errorf("experiments: signals %d, %d are not inbound TSVs of %s",
			tsvA, tsvB, d.Netlist.Name)
	}
	merged.ReusedFF = netlist.InvalidSignal
	shared.Control = append(kept, merged)

	sep, err := EvaluateStuckAt(d, base, budget)
	if err != nil {
		return 0, 0, err
	}
	shr, err := EvaluateStuckAt(d, shared, budget)
	if err != nil {
		return 0, 0, err
	}
	return sep.Coverage - shr.Coverage, shr.Patterns - sep.Patterns, nil
}

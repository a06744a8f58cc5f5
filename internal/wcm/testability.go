package wcm

import (
	"wcm3d/internal/netlist"
)

// The structural estimator's scale factors: each shared gate costs 2.0
// collapsed faults of coverage (taken as a fraction of the fault
// universe), and every 4 shared gates cost one extra pattern on top of the
// one any overlap costs.
const (
	covPerOverlapGate = 2.0
	gatesPerPattern   = 4
)

// SharePenalty is the structural testability estimator: the estimated
// fault-coverage decrease (fraction of the fault universe) and
// pattern-count increase caused by letting two nodes whose cones overlap
// in overlap combinational gates share a wrapper cell (paper Algorithm 1
// lines 21-23: fault_coverage(n1,n2) and #test_patterns(n1,n2)). The paper
// consults a commercial ATPG tool here; this estimator derives the penalty
// from the size of the overlap instead. Each shared gate contributes
// potential aliasing (a fault whose effect reaches the observation point
// along both shared paths can cancel) and potential input correlation (a
// fault needing independent values on the two cones may lose its test).
// Empirically — validated against exact incremental ATPG
// (experiments.ExactSharePenalty) in the test suite — aliasing kills a
// small fraction of the faults in the overlap region, and recovering
// coverage costs roughly one extra targeted pattern per handful of
// overlapped gates. It is pure, so safe for concurrent use.
func SharePenalty(n *netlist.Netlist, overlap int) (covLoss float64, patInc int) {
	if overlap <= 0 {
		return 0, 0
	}
	// The fault universe is roughly two collapsed faults per gate.
	universe := float64(2 * n.NumGates())
	return covPerOverlapGate * float64(overlap) / universe, 1 + overlap/gatesPerPattern
}

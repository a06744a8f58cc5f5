package wcm

import (
	"wcm3d/internal/netlist"
)

// Evaluator estimates the testability cost of letting two nodes share a
// wrapper cell when their cones overlap (paper Algorithm 1 lines 21-23:
// fault_coverage(n1,n2) and #test_patterns(n1,n2)). The paper consults a
// commercial ATPG tool here; this reproduction offers a fast structural
// estimator (default) and an exact incremental-ATPG evaluator
// (internal/experiments) used to validate the estimator on small dies.
type Evaluator interface {
	// SharePenalty returns the estimated fault-coverage decrease
	// (fraction of the fault universe) and pattern-count increase caused
	// by sharing between two nodes whose cones overlap in overlapGates
	// combinational gates.
	SharePenalty(n *netlist.Netlist, overlapGates int) (covLoss float64, patInc int)
}

// StructuralEstimator derives the penalty from the size of the cone
// overlap: each shared gate contributes potential aliasing (a fault whose
// effect reaches the observation point along both shared paths can cancel)
// and potential input correlation (a fault needing independent values on
// the two cones may lose its test). Empirically — validated against the
// exact evaluator in the test suite — aliasing kills a small fraction of
// the faults in the overlap region, and recovering coverage costs roughly
// one extra targeted pattern per handful of overlapped gates.
type StructuralEstimator struct{}

// The structural estimator's scale factors: each shared gate costs 2.0
// collapsed faults of coverage (taken as a fraction of the fault
// universe), and every 4 shared gates cost one extra pattern on top of the
// one any overlap costs.
const (
	covPerOverlapGate = 2.0
	gatesPerPattern   = 4
)

var _ Evaluator = StructuralEstimator{}

// SharePenalty implements Evaluator.
func (StructuralEstimator) SharePenalty(n *netlist.Netlist, overlap int) (float64, int) {
	if overlap <= 0 {
		return 0, 0
	}
	// The fault universe is roughly two collapsed faults per gate.
	universe := float64(2 * n.NumGates())
	covLoss := covPerOverlapGate * float64(overlap) / universe
	patInc := 1 + overlap/gatesPerPattern
	return covLoss, patInc
}

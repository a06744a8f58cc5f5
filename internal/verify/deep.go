package verify

import (
	"fmt"

	"wcm3d/internal/atpg"
	"wcm3d/internal/faults"
	"wcm3d/internal/scan"
)

// Deep mode closes the loop on the testability thresholds. The structural
// checks in verify.go judge overlapped cones with the same estimator the
// optimizer used — which certifies consistency but not truth. Deep mode
// instead measures: it applies the plan's test hardware, runs real ATPG on
// the faults inside the shared cones, and compares coverage and pattern
// count against a full-wrap baseline of the same die. Because ATPG on small
// fault subsets is noisy (one fault flipping detection status can swing
// coverage by whole percents against thresholds of fractions of one), the
// findings are advisory Warnings, never certification failures.

// deepATPG is the deep-mode ATPG effort: the reduced budget the
// experiments pipeline uses for sweeps.
var deepATPG = atpg.Options{
	Seed:             1,
	MaxRandomBlocks:  48,
	MaxBacktracks:    6,
	MinNewDetects:    1,
	MaxDeterministic: 3000,
}

// DeepStats reports what deep mode measured.
type DeepStats struct {
	// OverlapPairs is how many member pairs shared combinational logic.
	OverlapPairs int `json:"overlap_pairs"`
	// SharedGates is the size of the union of all shared cones.
	SharedGates int `json:"shared_gates"`
	// SharedFaults is how many collapsed faults live on those gates.
	SharedFaults int `json:"shared_faults"`
	// PlanCoverage and BaselineCoverage are the measured test coverages
	// of the plan and of a full-wrap baseline on the shared fault list.
	PlanCoverage     float64 `json:"plan_coverage"`
	BaselineCoverage float64 `json:"baseline_coverage"`
	// PlanPatterns and BaselinePatterns are the measured pattern counts.
	PlanPatterns     int `json:"plan_patterns"`
	BaselinePatterns int `json:"baseline_patterns"`
}

// deep measures the testability cost of the plan's cone sharing. It runs
// only when the structural pass recorded overlapping pairs; disjoint plans
// have nothing to measure.
func (c *checker) deep(asn *scan.Assignment) error {
	stats := &DeepStats{OverlapPairs: c.overlapPairs, SharedGates: len(c.sharedGates)}
	c.res.Deep = stats
	if len(c.sharedGates) == 0 {
		return nil
	}
	// Fault list: collapsed stuck-at faults restricted to the shared
	// gates — the only faults whose detection the sharing can plausibly
	// disturb.
	var list []faults.Fault
	for _, f := range faults.CollapsedList(c.n) {
		if c.sharedGates[f.Gate] {
			list = append(list, f)
		}
	}
	stats.SharedFaults = len(list)
	if len(list) == 0 {
		return nil
	}

	planDie, err := scan.ApplyTestMode(c.n, asn)
	if err != nil {
		return fmt.Errorf("verify: deep: applying plan test mode: %w", err)
	}
	planRes, err := atpg.Run(planDie, list, deepATPG)
	if err != nil {
		return fmt.Errorf("verify: deep: plan ATPG: %w", err)
	}
	baseDie, err := scan.ApplyTestMode(c.n, scan.FullWrap(c.n))
	if err != nil {
		return fmt.Errorf("verify: deep: applying full-wrap baseline: %w", err)
	}
	baseRes, err := atpg.Run(baseDie, list, deepATPG)
	if err != nil {
		return fmt.Errorf("verify: deep: baseline ATPG: %w", err)
	}
	stats.PlanCoverage = planRes.TestCoverage()
	stats.BaselineCoverage = baseRes.TestCoverage()
	stats.PlanPatterns = planRes.PatternCount()
	stats.BaselinePatterns = baseRes.PatternCount()

	if c.th == nil {
		return nil
	}
	// Aggregate bounds: each admitted pair promised < cov_th coverage
	// loss and < p_th extra patterns, so the whole plan should stay under
	// the sum across overlapping pairs.
	covLoss := stats.BaselineCoverage - stats.PlanCoverage
	covBound := c.th.CovThFrac * float64(c.overlapPairs)
	if covLoss >= covBound {
		c.warn(Violation{Code: CodeCoverageLoss, Got: covLoss, Limit: covBound,
			Detail: fmt.Sprintf("measured coverage loss %.4f over %d shared faults exceeds the aggregate budget %.4f (%d overlapping pairs × cov_th %.4f); ATPG noise on small fault lists can trip this — investigate, don't auto-reject",
				covLoss, stats.SharedFaults, covBound, c.overlapPairs, c.th.CovThFrac)})
	}
	patInc := stats.PlanPatterns - stats.BaselinePatterns
	patBound := c.th.PatThCount * c.overlapPairs
	if patInc >= patBound {
		c.warn(Violation{Code: CodePatternGrowth, Got: float64(patInc), Limit: float64(patBound),
			Detail: fmt.Sprintf("measured pattern growth %d exceeds the aggregate budget %d (%d overlapping pairs × p_th %d)",
				patInc, patBound, c.overlapPairs, c.th.PatThCount)})
	}
	return nil
}

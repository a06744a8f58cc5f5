package experiments

import (
	"fmt"

	"wcm3d/internal/atpg"
	"wcm3d/internal/faultsim"
	"wcm3d/internal/netlist"
	"wcm3d/internal/scan"
)

// Testability is the ATPG outcome for one wrapped die under one fault
// model.
type Testability struct {
	// Coverage is the test coverage (detected / non-redundant faults) —
	// the metric commercial ATPG reports and the paper tabulates.
	Coverage float64
	// RawCoverage is detected / all faults.
	RawCoverage float64
	// Patterns is the test-pattern count (vector pairs count as two for
	// transition tests, matching commercial reporting).
	Patterns int
}

func (t Testability) String() string {
	return fmt.Sprintf("(%.2f%%, %d)", 100*t.Coverage, t.Patterns)
}

// ATPGBudget tunes the per-die ATPG effort used by the experiments; the
// stuck-at and transition runs share it. The zero value uses atpg defaults.
type ATPGBudget = atpg.Options

// DefaultBudget gives the full-effort configuration used by cmd/tables.
func DefaultBudget(seed int64) ATPGBudget { return atpg.Options{Seed: seed} }

// ReducedBudget caps the expensive deterministic phase (atpg.Reduced) — for
// testing.B benchmark loops and quick table runs.
func ReducedBudget(seed int64) ATPGBudget { return atpg.Reduced(seed) }

// EvaluateStuckAt wraps the die per the plan and runs stuck-at ATPG against
// the die's functional fault universe.
func EvaluateStuckAt(d *Die, asn *scan.Assignment, budget ATPGBudget) (Testability, error) {
	_, t, err := StuckAtPatterns(d, asn, budget)
	return t, err
}

// StuckAtPatterns is EvaluateStuckAt that also returns the pattern set.
func StuckAtPatterns(d *Die, asn *scan.Assignment, budget ATPGBudget) ([]faultsim.Pattern, Testability, error) {
	res, err := runATPG(d, asn, func(tn *netlist.Netlist) (*atpg.Result, error) {
		return atpg.Run(tn, d.StuckAt, budget)
	})
	if err != nil {
		return nil, Testability{}, err
	}
	return res.Patterns, testability(res), nil
}

// EvaluateTransition is EvaluateStuckAt for the transition-delay model.
func EvaluateTransition(d *Die, asn *scan.Assignment, budget ATPGBudget) (Testability, error) {
	res, err := runATPG(d, asn, func(tn *netlist.Netlist) (*atpg.TransitionResult, error) {
		return atpg.RunTransition(tn, d.Transition, budget)
	})
	if err != nil {
		return Testability{}, err
	}
	return testability(res), nil
}

// atpgResult is what both ATPG engines report.
type atpgResult interface {
	Coverage() float64
	TestCoverage() float64
	PatternCount() int
}

// runATPG builds the plan's test-mode view of the die and runs one ATPG
// engine on it.
func runATPG[R atpgResult](d *Die, asn *scan.Assignment, run func(tn *netlist.Netlist) (R, error)) (R, error) {
	tn, err := scan.ApplyTestMode(d.Netlist, asn)
	if err != nil {
		var none R
		return none, err
	}
	return run(tn)
}

func testability(r atpgResult) Testability {
	return Testability{
		Coverage:    r.TestCoverage(),
		RawCoverage: r.Coverage(),
		Patterns:    r.PatternCount(),
	}
}

// CheckTiming times the plan's physical test hardware in functional mode
// (test_en tied low) and reports whether the die still meets its clock
// (Table III's "timing violation" column), along with the worst slack.
func CheckTiming(d *Die, asn *scan.Assignment) (violation bool, wnsPS float64, err error) {
	r, err := scan.TimeFunctionalMode(d.Netlist, d.Placement, d.Lib, asn, d.ClockPS)
	if err != nil {
		return false, 0, err
	}
	wns := r.WNS()
	return wns < 0, wns, nil
}

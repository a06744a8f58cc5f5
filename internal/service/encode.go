// Package service implements wcmd, the WCM-as-a-service daemon: one
// bounded queue and worker pool over the wcm3d library that admits
// single- and multi-die jobs and stack schedules alike, an LRU cache of
// prepared dies with single-flight deduplication, an HTTP/JSON API
// (/v1/jobs, /v1/schedules, /v1/dies, /healthz, /metrics; see Handler),
// and the machine-readable result schemas shared with the CLIs
// (cmd/wcmflow -json, cmd/schedule -json).
package service

import (
	"wcm3d"
)

// DieInfo is the JSON description of a prepared die, used both in Reports
// and by GET /v1/dies.
type DieInfo struct {
	Name         string  `json:"name"`
	Seed         int64   `json:"seed"`
	ScanFFs      int     `json:"scan_ffs"`
	LogicGates   int     `json:"logic_gates"`
	InboundTSVs  int     `json:"inbound_tsvs"`
	OutboundTSVs int     `json:"outbound_tsvs"`
	ClockPS      float64 `json:"clock_ps"`
	MarginPS     float64 `json:"margin_ps"`
	WidthUM      float64 `json:"width_um"`
	HeightUM     float64 `json:"height_um"`
}

// DescribeDie summarizes a prepared die under its cache/display name.
func DescribeDie(name string, seed int64, d *wcm3d.Die) DieInfo {
	return DieInfo{
		Name:         name,
		Seed:         seed,
		ScanFFs:      len(d.Netlist.FlipFlops()),
		LogicGates:   d.Netlist.NumLogicGates(),
		InboundTSVs:  len(d.Netlist.InboundTSVs()),
		OutboundTSVs: len(d.Netlist.OutboundTSVs()),
		ClockPS:      d.ClockPS,
		MarginPS:     d.MarginPS,
		WidthUM:      d.Placement.Width,
		HeightUM:     d.Placement.Height,
	}
}

// ExperimentReport wraps one evaluation experiment's rows for
// machine-readable output — the envelope cmd/tables -json emits, kept here
// so every CLI's JSON schema lives in one place. Rows is the experiment's
// row slice (e.g. []experiments.Table1Row) serialized as-is.
type ExperimentReport struct {
	Experiment string `json:"experiment"`
	Rows       any    `json:"rows"`
}

// TestabilityReport is the JSON form of an ATPG outcome.
type TestabilityReport struct {
	Coverage    float64 `json:"coverage"`
	RawCoverage float64 `json:"raw_coverage"`
	Patterns    int     `json:"patterns"`
}

// EncodeTestability converts an ATPG outcome to its JSON form.
func EncodeTestability(tb wcm3d.Testability) TestabilityReport {
	return TestabilityReport{
		Coverage:    tb.Coverage,
		RawCoverage: tb.RawCoverage,
		Patterns:    tb.Patterns,
	}
}

// PhaseReport is the JSON form of one solver phase's graph statistics.
type PhaseReport struct {
	Inbound      bool `json:"inbound"`
	Nodes        int  `json:"nodes"`
	Edges        int  `json:"edges"`
	OverlapEdges int  `json:"overlap_edges"`
	FilteredTSVs int  `json:"filtered_tsvs"`
	Cliques      int  `json:"cliques"`
}

// VerifyViolation is the JSON form of one independent-verifier finding.
type VerifyViolation struct {
	Code   string  `json:"code"`
	Where  string  `json:"where,omitempty"`
	Signal string  `json:"signal,omitempty"`
	Got    float64 `json:"got,omitempty"`
	Limit  float64 `json:"limit,omitempty"`
	Detail string  `json:"detail"`
}

// VerifyReport is the JSON form of an independent plan verification — the
// schema shared by wcmd job results (verify=true) and cmd/verify -json.
type VerifyReport struct {
	OK         bool              `json:"ok"`
	Groups     int               `json:"groups"`
	Pairs      int               `json:"pairs"`
	ReusedFFs  int               `json:"reused_ffs"`
	Violations []VerifyViolation `json:"violations,omitempty"`
	Warnings   []VerifyViolation `json:"warnings,omitempty"`
}

// EncodeVerify converts a verifier report to its JSON form.
func EncodeVerify(vr *wcm3d.VerifyResult) *VerifyReport {
	conv := func(vs []wcm3d.PlanViolation) []VerifyViolation {
		out := make([]VerifyViolation, 0, len(vs))
		for _, v := range vs {
			out = append(out, VerifyViolation{
				Code:   string(v.Code),
				Where:  v.Where,
				Signal: v.Signal,
				Got:    v.Got,
				Limit:  v.Limit,
				Detail: v.Detail,
			})
		}
		return out
	}
	return &VerifyReport{
		OK:         vr.OK(),
		Groups:     vr.Groups,
		Pairs:      vr.Pairs,
		ReusedFFs:  vr.ReusedFFs,
		Violations: conv(vr.Violations),
		Warnings:   conv(vr.Warnings),
	}
}

// Report is the machine-readable outcome of one minimization run — the
// schema shared by the wcmd daemon's job results and cmd/wcmflow -json, so
// CLI and service output stay in lockstep.
type Report struct {
	Die             DieInfo            `json:"die"`
	Method          string             `json:"method"`
	Timing          string             `json:"timing"`
	ReusedFFs       int                `json:"reused_ffs"`
	AdditionalCells int                `json:"additional_cells"`
	DFTAreaUM2      float64            `json:"dft_area_um2"`
	Phases          []PhaseReport      `json:"phases,omitempty"`
	TimingMet       bool               `json:"timing_met"`
	WNSPS           float64            `json:"wns_ps"`
	StuckAt         *TestabilityReport `json:"stuck_at,omitempty"`
	TestCycles      int                `json:"test_cycles,omitempty"`
	Verify          *VerifyReport      `json:"verify,omitempty"`
	Refine          *RefineReport      `json:"refine,omitempty"`
}

// RefineReport is the JSON form of a solver-portfolio refinement run
// (refine=true jobs, cmd/refine -json).
type RefineReport struct {
	// Improved reports whether a verified plan beat the greedy one;
	// GreedyCells → AdditionalCells is the before/after, CellsSaved the
	// difference, Strategy the winning solver.
	Improved        bool   `json:"improved"`
	GreedyCells     int    `json:"greedy_cells"`
	AdditionalCells int    `json:"additional_cells"`
	CellsSaved      int    `json:"cells_saved"`
	ReusedFFs       int    `json:"reused_ffs"`
	Strategy        string `json:"strategy,omitempty"`
	// LowerBound is the capacity bound on refine's model (phase two
	// priced from greedy's phase-one hardware): no plan of that model
	// needs fewer cells. Gap is AdditionalCells − LowerBound; zero means
	// the plan is optimal on the model. The bound is 0 when the stage
	// skipped.
	LowerBound int `json:"lower_bound"`
	Gap        int `json:"gap"`
	// Skipped reports that the stage never ran: the job reached refine
	// with less than the minimum worthwhile budget remaining (see
	// service.MinRefineBudget). FundedMS is the wall budget the stage
	// was actually funded with, in milliseconds — zero or tiny when
	// skipped, the real search budget otherwise.
	Skipped  bool  `json:"skipped,omitempty"`
	FundedMS int64 `json:"funded_ms,omitempty"`
	// Strategies reports every solver that started: steps searched,
	// candidates proposed/admitted/rejected, and whether its share of
	// the deadline cut the run short.
	Strategies []RefineStrategyReport `json:"strategies,omitempty"`
}

// RefineStrategyReport is one solver's outcome inside a refinement run.
type RefineStrategyReport struct {
	Name     string `json:"name"`
	Steps    int    `json:"steps"`
	Proposed int    `json:"proposed"`
	Admitted int    `json:"admitted"`
	Rejected int    `json:"rejected"`
	Deadline bool   `json:"deadline,omitempty"`
	Err      string `json:"err,omitempty"`
}

// EncodeRefine converts a refinement result to its JSON form.
func EncodeRefine(rr *wcm3d.RefineResult) *RefineReport {
	r := &RefineReport{
		Improved:        rr.Improved,
		GreedyCells:     rr.GreedyCells,
		AdditionalCells: rr.AdditionalCells,
		CellsSaved:      rr.CellsSaved,
		ReusedFFs:       rr.ReusedFFs,
		Strategy:        rr.Strategy,
		LowerBound:      rr.LowerBound,
		Gap:             rr.AdditionalCells - rr.LowerBound,
	}
	for _, so := range rr.Strategies {
		r.Strategies = append(r.Strategies, RefineStrategyReport{
			Name:     so.Name,
			Steps:    so.Steps,
			Proposed: so.Proposed,
			Admitted: so.Admitted,
			Rejected: so.Rejected,
			Deadline: so.Deadline,
			Err:      so.Err,
		})
	}
	return r
}

// EncodeResult builds the Report for a minimization outcome on a die. The
// timing-signoff and ATPG sections start empty; fill them with SetSignoff
// and SetStuckAt as those stages run.
func EncodeResult(die DieInfo, m wcm3d.Method, mode wcm3d.TimingMode, res *wcm3d.MinimizeResult, lib *wcm3d.Library) *Report {
	r := &Report{
		Die:             die,
		Method:          m.String(),
		Timing:          mode.String(),
		ReusedFFs:       res.ReusedFFs,
		AdditionalCells: res.AdditionalCells,
		DFTAreaUM2:      res.AreaUM2(lib),
	}
	for _, p := range res.Phases {
		r.Phases = append(r.Phases, PhaseReport{
			Inbound:      p.Inbound,
			Nodes:        p.Nodes,
			Edges:        p.Edges,
			OverlapEdges: p.OverlapEdges,
			FilteredTSVs: p.FilteredTSVs,
			Cliques:      p.Cliques,
		})
	}
	return r
}

// SetSignoff records the functional-mode timing check.
func (r *Report) SetSignoff(violation bool, wnsPS float64) {
	r.TimingMet = !violation
	r.WNSPS = wnsPS
}

// SetStuckAt records the stuck-at ATPG grade and the tester-time estimate
// (testCycles <= 0 omits the estimate).
func (r *Report) SetStuckAt(tb wcm3d.Testability, testCycles int) {
	enc := EncodeTestability(tb)
	r.StuckAt = &enc
	if testCycles > 0 {
		r.TestCycles = testCycles
	}
}

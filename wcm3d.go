// Package wcm3d is a Go implementation of timing-aware wrapper-cell
// minimization for pre-bond testing of 3D-ICs (Ho, Chen, Wu, Hwang —
// SOCC 2019), together with every substrate the flow needs: a gate-level
// netlist model with an ISCAS-style text format, an ITC'99-profiled
// synthetic benchmark generator, placement, static timing analysis, fault
// models, bit-parallel fault simulation, PODEM test generation, and a DFT
// editor that materializes wrapper plans as netlist edits.
//
// # The problem
//
// Before dies are bonded, through-silicon vias (TSVs) float: an inbound
// TSV (a die input) cannot be controlled by the tester and an outbound TSV
// (a die output) cannot be observed. Dedicated wrapper cells at every TSV
// restore testability at a large area cost. This library minimizes that
// cost by reusing existing scan flip-flops as wrapper cells and by letting
// several TSVs share one cell, solved as heuristic clique partitioning
// over a sharing graph — with a placement-accurate timing model so reuse
// never breaks the die's clock, and with testability-bounded sharing
// between overlapping logic cones.
//
// # Quick start
//
//	die, _ := wcm3d.PrepareDie(wcm3d.ITC99Profiles()[4], 1)
//	res, _ := wcm3d.Minimize(die, wcm3d.MethodOurs, wcm3d.TightTiming)
//	fmt.Println(res.ReusedFFs, res.AdditionalCells)
//
// See examples/ for complete programs and cmd/tables for the harness that
// regenerates every table and figure of the paper.
package wcm3d

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"wcm3d/internal/cells"
	"wcm3d/internal/diagnose"
	"wcm3d/internal/experiments"
	"wcm3d/internal/faults"
	"wcm3d/internal/faultsim"
	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
	"wcm3d/internal/partition"
	"wcm3d/internal/place"
	"wcm3d/internal/refine"
	"wcm3d/internal/scan"
	"wcm3d/internal/sta"
	"wcm3d/internal/tam"
	"wcm3d/internal/tsvrepair"
	"wcm3d/internal/verify"
	"wcm3d/internal/wcm"
	"wcm3d/internal/wcm/li"
)

// Core data types, re-exported for API users. The internal packages carry
// the full documentation.
type (
	// Netlist is a gate-level die (see internal/netlist).
	Netlist = netlist.Netlist
	// SignalID identifies a signal by its driving gate.
	SignalID = netlist.SignalID
	// Profile describes one benchmark die (Table II counters).
	Profile = netgen.Profile
	// Die is a prepared benchmark die: generated, placed, timed, with
	// fault universes enumerated.
	Die = experiments.Die
	// Library is the technology characterization used by timing.
	Library = cells.Library
	// Placement holds physical coordinates for a die.
	Placement = place.Placement
	// TimingResult is a static timing analysis.
	TimingResult = sta.Result
	// Assignment is a wrapper plan: which flip-flop or dedicated cell
	// covers which TSVs.
	Assignment = scan.Assignment
	// MinimizeResult is the outcome of a wrapper-cell minimization run.
	MinimizeResult = wcm.Result
	// MinimizeOptions is the full knob set of the WCM engine.
	MinimizeOptions = wcm.Options
	// Testability is an ATPG outcome (coverage, pattern count).
	Testability = experiments.Testability
	// Fault is a single stuck-at fault.
	Fault = faults.Fault
	// TransitionFault is a transition-delay fault.
	TransitionFault = faults.TransitionFault
)

// Method selects a wrapper-cell minimization algorithm.
type Method uint8

// Available methods.
const (
	// MethodOurs is the paper's contribution: larger-TSV-set-first
	// ordering, placement-accurate timing, overlapped-cone sharing under
	// testability thresholds.
	MethodOurs Method = iota + 1
	// MethodAgrawal is the TCAD'15 baseline: inbound-first,
	// capacitance-only timing, no overlapped cones.
	MethodAgrawal
	// MethodLi is the ICCD'10 baseline: one flip-flop covers at most one
	// TSV, no sharing.
	MethodLi
	// MethodFullWrap inserts a dedicated wrapper cell at every TSV (the
	// pre-reuse baseline).
	MethodFullWrap
)

// ParseBudget maps the ATPG effort spelling used by the CLIs and the wcmd
// service ("full" or "reduced"; empty means full) to the budget for seed.
func ParseBudget(name string, seed int64) (ATPGBudget, error) {
	switch name {
	case "", "full":
		return DefaultBudget(seed), nil
	case "reduced":
		return ReducedBudget(seed), nil
	default:
		return ATPGBudget{}, fmt.Errorf("wcm3d: unknown budget %q (want full or reduced)", name)
	}
}

// ParseMethod maps the spelling used by the CLIs and the wcmd service
// ("ours", "agrawal", "li", "fullwrap" / "full-wrap", case-insensitive)
// back to a Method.
func ParseMethod(s string) (Method, error) {
	switch strings.ToLower(s) {
	case "ours":
		return MethodOurs, nil
	case "agrawal":
		return MethodAgrawal, nil
	case "li":
		return MethodLi, nil
	case "fullwrap", "full-wrap":
		return MethodFullWrap, nil
	default:
		return 0, fmt.Errorf("wcm3d: unknown method %q", s)
	}
}

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodOurs:
		return "ours"
	case MethodAgrawal:
		return "agrawal"
	case MethodLi:
		return "li"
	case MethodFullWrap:
		return "full-wrap"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// TimingMode selects the paper's two evaluation scenarios.
type TimingMode uint8

// Timing scenarios.
const (
	// LooseTiming is the area-optimized scenario: no timing constraints.
	LooseTiming TimingMode = iota + 1
	// TightTiming is the performance-optimized scenario: thresholds
	// derived from the die's clock margin.
	TightTiming
)

// String names the mode.
func (t TimingMode) String() string {
	if t == TightTiming {
		return "tight"
	}
	return "loose"
}

// ParseTimingMode maps "tight" / "loose" (case-insensitive) back to a
// TimingMode.
func ParseTimingMode(s string) (TimingMode, error) {
	switch strings.ToLower(s) {
	case "tight":
		return TightTiming, nil
	case "loose":
		return LooseTiming, nil
	default:
		return 0, fmt.Errorf("wcm3d: unknown timing mode %q", s)
	}
}

// ITC99Profiles returns the 24 benchmark die profiles of the paper's
// Table II (six ITC'99 circuits × four dies).
func ITC99Profiles() []Profile { return netgen.ITC99Profiles() }

// CircuitProfiles returns the four die profiles of one benchmark family
// ("b11" ... "b22"), or nil for an unknown name.
func CircuitProfiles(name string) []Profile { return netgen.ITC99Circuit(name) }

// CircuitNames returns the six benchmark family names.
func CircuitNames() []string { return netgen.ITC99CircuitNames() }

// ProfileByName resolves a Table II die identifier of the form "b12/1"
// or "b12/Die1" — the spelling the CLIs and the wcmd service accept.
func ProfileByName(name string) (Profile, error) {
	parts := strings.Split(name, "/")
	if len(parts) != 2 {
		return Profile{}, fmt.Errorf("wcm3d: profile must look like b12/1, got %q", name)
	}
	idx, err := strconv.Atoi(strings.TrimPrefix(parts[1], "Die"))
	if err != nil {
		return Profile{}, fmt.Errorf("wcm3d: bad die index in profile %q", name)
	}
	ps := CircuitProfiles(parts[0])
	if ps == nil || idx < 0 || idx >= len(ps) {
		return Profile{}, fmt.Errorf("wcm3d: no profile %q", name)
	}
	return ps[idx], nil
}

// GenerateDie synthesizes a die matching the profile exactly;
// deterministic in (profile, seed).
func GenerateDie(p Profile, seed int64) (*Netlist, error) {
	return netgen.Generate(p, seed)
}

// PrepareDie generates, places and times a benchmark die, ready for
// Minimize and the evaluation helpers.
func PrepareDie(p Profile, seed int64) (*Die, error) {
	return experiments.PrepareDie(p, seed)
}

// PrepareSuite prepares dies for several profiles.
func PrepareSuite(profiles []Profile, seed int64) ([]*Die, error) {
	return experiments.PrepareSuite(profiles, seed)
}

// DefaultLibrary returns the generic 45 nm technology library.
func DefaultLibrary() *Library { return cells.Default45nm() }

// MethodOptions maps a method to its WCM engine configuration for die d
// under a timing scenario — the paper's method × scenario grid in one
// place. It reports false for the methods with no threshold contract: Li's
// one-TSV-per-FF matching and full wrap never run the engine, so there is
// nothing to refine or replan against.
func MethodOptions(d *Die, m Method, mode TimingMode) (MinimizeOptions, bool) {
	switch m {
	case MethodOurs:
		return experiments.OurOptions(d, mode == TightTiming), true
	case MethodAgrawal:
		return experiments.AgrawalOptions(d, mode == TightTiming), true
	default:
		return MinimizeOptions{}, false
	}
}

// Minimize runs a wrapper-cell minimization method on a prepared die under
// a timing scenario.
func Minimize(d *Die, m Method, mode TimingMode) (*MinimizeResult, error) {
	if opts, ok := MethodOptions(d, m, mode); ok {
		return wcm.Run(d.Input(), opts)
	}
	switch m {
	case MethodLi:
		// Li matches under Agrawal's capacitance threshold.
		agr, _ := MethodOptions(d, MethodAgrawal, mode)
		return li.Run(d.Input(), agr.CapThFF)
	case MethodFullWrap:
		asn := scan.FullWrap(d.Netlist)
		return &wcm.Result{
			Assignment:      asn,
			ReusedFFs:       asn.ReusedFFs(),
			AdditionalCells: asn.AdditionalCells(),
		}, nil
	default:
		return nil, fmt.Errorf("wcm3d: unknown method %v", m)
	}
}

// MinimizeWith runs the WCM engine with explicit options (see
// wcm.Options); Minimize covers the paper's standard configurations. To
// spend extra wall time on a smaller plan, hand the result to Refine.
func MinimizeWith(d *Die, opts MinimizeOptions) (*MinimizeResult, error) {
	return wcm.Run(d.Input(), opts)
}

// RefineOptions configures the anytime solver portfolio (see
// internal/refine): wall budget, RNG seed, step budget, strategy subset
// and run order, and the evaluator's cross-check debug mode.
type RefineOptions = refine.Options

// DefaultRefineBudget is the portfolio's wall budget when
// RefineOptions.Budget is zero.
const DefaultRefineBudget = refine.DefaultBudget

// RefineResult reports a refinement run: the winning plan (or the greedy
// plan unchanged), the cells saved, and per-strategy outcomes.
type RefineResult = refine.Result

// Refine runs the solver portfolio — large-neighborhood destroy/repair,
// deterministic local search, seeded simulated annealing, one after
// another on shares of the wall budget — over a greedy minimization result
// and returns the best plan that passes the independent verifier before
// the deadline. The result is never worse than
// the input plan: an expired context or a fruitless search hands the
// greedy assignment back unchanged. opts must be the configuration the
// plan was produced with (it prices the sharing model and is the contract
// candidates are verified against).
func Refine(ctx context.Context, d *Die, opts MinimizeOptions, res *MinimizeResult, ro RefineOptions) (*RefineResult, error) {
	if d == nil || res == nil {
		return nil, fmt.Errorf("wcm3d: Refine needs a die and a result")
	}
	return refine.Run(ctx, d.Input(), opts, res, ro)
}

// OurOptions exposes the paper's configuration for a die/scenario so
// callers can modify single knobs (ablations); MethodOptions covers every
// method.
func OurOptions(d *Die, mode TimingMode) MinimizeOptions {
	return experiments.OurOptions(d, mode == TightTiming)
}

// CheckTiming reports whether the plan's physical test hardware violates
// the die's clock, with the worst negative slack (functional signoff with
// test_en case analysis).
func CheckTiming(d *Die, asn *Assignment) (violation bool, wnsPS float64, err error) {
	return experiments.CheckTiming(d, asn)
}

// VerifyOptions selects what the independent plan verifier checks (see
// internal/verify).
type VerifyOptions = verify.Options

// VerifyResult is the verifier's report: violations, warnings and what was
// checked.
type VerifyResult = verify.Result

// PlanViolation is one broken invariant found by the verifier.
type PlanViolation = verify.Violation

// VerifyPlan certifies a minimization result against the die it was
// planned for, using the from-scratch checker in internal/verify (cone
// re-traversal, pairwise constraint re-derivation, slack re-pricing — no
// code shared with the optimizer's hot path). When vo.Thresholds is nil
// and the result carries an effective configuration (wcm.Run echoes it;
// Li's matching and full-wrap do not), the result's own options become the
// contract; otherwise only structure and coverage are checked.
func VerifyPlan(d *Die, res *MinimizeResult, vo VerifyOptions) (*VerifyResult, error) {
	if d == nil || res == nil {
		return nil, fmt.Errorf("wcm3d: VerifyPlan needs a die and a result")
	}
	if vo.Thresholds == nil && res.Options.Order != 0 {
		th := res.Options
		vo.Thresholds = &th
	}
	return verify.Plan(d.Input(), res.Assignment, vo)
}

// ATPGBudget tunes evaluation effort.
type ATPGBudget = experiments.ATPGBudget

// DefaultBudget is the full-effort ATPG configuration.
func DefaultBudget(seed int64) ATPGBudget { return experiments.DefaultBudget(seed) }

// ReducedBudget trims ATPG effort for fast iteration.
func ReducedBudget(seed int64) ATPGBudget { return experiments.ReducedBudget(seed) }

// EvaluateStuckAt grades a wrapper plan with stuck-at ATPG against the
// die's functional fault universe.
func EvaluateStuckAt(d *Die, asn *Assignment, budget ATPGBudget) (Testability, error) {
	return experiments.EvaluateStuckAt(d, asn, budget)
}

// EvaluateTransition grades a wrapper plan with transition-delay ATPG.
func EvaluateTransition(d *Die, asn *Assignment, budget ATPGBudget) (Testability, error) {
	return experiments.EvaluateTransition(d, asn, budget)
}

// ParseNetlist reads a die in the .bench dialect (see internal/netlist).
func ParseNetlist(name string, r io.Reader) (*Netlist, error) {
	return netlist.Parse(name, r)
}

// FullWrap returns the one-dedicated-cell-per-TSV plan.
func FullWrap(n *Netlist) *Assignment { return scan.FullWrap(n) }

// PrepareParsed places and times a die you built or parsed yourself,
// producing the same prepared Die that PrepareDie yields for generated
// benchmarks.
func PrepareParsed(n *Netlist, seed int64) (*Die, error) {
	return experiments.PrepareNetlist(n, seed)
}

// PartitionResult is a 3D partition of a monolithic netlist.
type PartitionResult = partition.Result

// PartitionNetlist splits a monolithic design into a power-of-two die
// stack with min-cut (Fiduccia–Mattheyses) partitioning; cut nets become
// TSVs. This substitutes for the 3D physical-design front end the paper
// used on the ITC'99 circuits.
func PartitionNetlist(n *Netlist, dies int, seed int64) (*PartitionResult, error) {
	return partition.Partition(n, partition.Options{Dies: dies, Seed: seed})
}

// BondStack stitches partitioned dies back together — the post-bond view,
// where TSVs are connected and stack-level test regains access.
func BondStack(name string, dies []*Netlist) (*Netlist, error) {
	return partition.Bond(name, dies)
}

// ChainPlan is a scan-chain stitching (see internal/scan).
type ChainPlan = scan.ChainPlan

// BuildScanChains stitches a die's scan cells (flip-flops plus the plan's
// dedicated wrapper cells) into nChains placement-ordered chains; its
// TestCycles method estimates tester time for a pattern count.
func BuildScanChains(d *Die, asn *Assignment, nChains int) (*ChainPlan, error) {
	return scan.BuildChains(d.Netlist, d.Placement, asn, nChains)
}

// WrapperDesign is one point on a die's wrapper/TAM trade-off frontier:
// testing over Width TAM wires takes Cycles tester cycles (see
// internal/tam).
type WrapperDesign = tam.Design

// TestSchedule is a packed pre-bond stack test schedule: per-die TAM wire
// ranges and start/stop times, the makespan, and the serial reference.
type TestSchedule = tam.Schedule

// TestSlot is one die's placement within a TestSchedule.
type TestSlot = tam.Slot

// StackDie couples a wrapped die with everything stack scheduling needs:
// the prepared die, its wrapper plan, and its ATPG pattern count.
type StackDie struct {
	// Name labels the die in the schedule; empty defaults to the die's
	// profile name.
	Name string
	// Die is the prepared die (PrepareDie / PrepareParsed).
	Die *Die
	// Assignment is the die's wrapper plan (Minimize result).
	Assignment *Assignment
	// Patterns is the die's test-pattern count (EvaluateStuckAt).
	Patterns int
}

// EnumerateWrapperDesigns sweeps a die's scan-chain counts from 1 to
// maxWidth and returns the Pareto frontier of (TAM width, test cycles)
// wrapper designs — the rectangles Schedule packs.
func EnumerateWrapperDesigns(d *Die, asn *Assignment, patterns, maxWidth int) ([]WrapperDesign, error) {
	return tam.Enumerate(d.Netlist, d.Placement, asn, patterns, maxWidth)
}

// DieDesigns is one stack entry as Schedule packed it: its name (the
// die's profile name when StackDie.Name is empty) and its Pareto wrapper
// designs.
type DieDesigns = tam.DieSpec

// Schedule performs wrapper/TAM co-optimization for a pre-bond stack: it
// enumerates each die's Pareto wrapper designs and packs one rectangle per
// die into a (totalWidth × time) plane with a best-fit-decreasing
// heuristic and idle-width reclamation. The schedule is deterministic,
// overlap-free, never exceeds totalWidth, and its makespan never exceeds
// serial one-die-at-a-time testing.
func Schedule(stack []StackDie, totalWidth int) (*TestSchedule, error) {
	sched, _, err := ScheduleDesigns(stack, totalWidth)
	return sched, err
}

// ScheduleDesigns is Schedule that also returns what it packed: one
// DieDesigns per stack entry, in stack order.
func ScheduleDesigns(stack []StackDie, totalWidth int) (*TestSchedule, []DieDesigns, error) {
	specs := make([]DieDesigns, len(stack))
	for i, sd := range stack {
		if sd.Die == nil {
			return nil, nil, fmt.Errorf("wcm3d: stack entry %d has no die", i)
		}
		name := sd.Name
		if name == "" {
			name = sd.Die.Profile.Name()
		}
		designs, err := tam.Enumerate(sd.Die.Netlist, sd.Die.Placement, sd.Assignment, sd.Patterns, totalWidth)
		if err != nil {
			return nil, nil, fmt.Errorf("wcm3d: enumerating %s: %w", name, err)
		}
		specs[i] = DieDesigns{Name: name, Designs: designs}
	}
	sched, err := tam.Pack(specs, totalWidth)
	if err != nil {
		return nil, nil, err
	}
	return sched, specs, nil
}

// Syndrome is a tester observation: which applied patterns failed.
type Syndrome = diagnose.Syndrome

// DiagnosisCandidate is one ranked defect explanation.
type DiagnosisCandidate = diagnose.Candidate

// Diagnose ranks the die's fault universe against a tester syndrome for a
// pattern set applied to the wrapped die (ApplyTestMode view), best
// explanation first.
func Diagnose(d *Die, asn *Assignment, patterns []Pattern, syn *Syndrome) ([]DiagnosisCandidate, error) {
	tn, err := scan.ApplyTestMode(d.Netlist, asn)
	if err != nil {
		return nil, err
	}
	return diagnose.Locate(tn, patterns, syn, d.StuckAt)
}

// SuspectTSVs maps the first maxFaults ranked defect candidates onto the
// names of the TSVs whose test paths they implicate. Candidates are mapped
// on the base die, where every TSV is still a pad (the test view wraps
// them), so the result does not depend on asn.
func SuspectTSVs(d *Die, asn *Assignment, ranked []DiagnosisCandidate, maxFaults int) ([]string, error) {
	return diagnose.TSVSuspects(d.Netlist, ranked, maxFaults), nil
}

// Pattern is one scan test vector.
type Pattern = faultsim.Pattern

// ----- TSV-defect repair and incremental replanning (internal/tsvrepair).

type (
	// TSVFaultKind classifies a pre-bond TSV defect (stuck, open,
	// bridge, crosstalk).
	TSVFaultKind = tsvrepair.FaultKind
	// TSVFault is one TSV defect, referencing TSVs by name.
	TSVFault = tsvrepair.Fault
	// TSVDelta is an atomic batch of TSV faults.
	TSVDelta = tsvrepair.Delta
	// TSVRepair records one executed victim-to-spare substitution.
	TSVRepair = tsvrepair.Repair
	// SpareSpec says how many spare TSV sites a die carries per side.
	SpareSpec = tsvrepair.SpareSpec
	// ReplanPlanner owns a die's repair lifecycle: it patches TSV
	// faults onto spares and replans incrementally through cached
	// cone/verdict geometry (see internal/tsvrepair).
	ReplanPlanner = tsvrepair.Planner
)

// TSV defect kinds.
const (
	TSVStuck0    = tsvrepair.Stuck0
	TSVStuck1    = tsvrepair.Stuck1
	TSVOpen      = tsvrepair.Open
	TSVBridge    = tsvrepair.Bridge
	TSVCrosstalk = tsvrepair.Crosstalk
)

// Replan failure classes, for callers mapping outcomes to exit codes or
// HTTP statuses.
var (
	// ErrUnknownTSV: a fault named no live TSV on the die.
	ErrUnknownTSV = tsvrepair.ErrUnknownTSV
	// ErrNoSpares: the delta needs more spare sites than remain.
	ErrNoSpares = tsvrepair.ErrNoSpares
	// ErrBadTSVFault: the fault itself is malformed.
	ErrBadTSVFault = tsvrepair.ErrBadFault
)

// ParseTSVFaultKind maps the CLI/service spelling ("stuck0", "open",
// "bridge", ...) to a kind.
func ParseTSVFaultKind(s string) (TSVFaultKind, error) { return tsvrepair.ParseFaultKind(s) }

// AddSpareTSVs materializes spare TSV sites on an unprepared netlist;
// call it before PrepareParsed so the sites get placed and timed.
func AddSpareTSVs(n *Netlist, spec SpareSpec) error { return tsvrepair.AddSpares(n, spec) }

// PrepareDieWithSpares generates and prepares a benchmark die carrying
// spare TSV sites, ready for NewReplanPlanner. A zero spec prepares
// exactly what PrepareDie does.
func PrepareDieWithSpares(p Profile, seed int64, spec SpareSpec) (*Die, error) {
	n, err := GenerateDie(p, seed)
	if err != nil {
		return nil, err
	}
	if err := AddSpareTSVs(n, spec); err != nil {
		return nil, err
	}
	d, err := PrepareParsed(n, seed)
	if err != nil {
		return nil, err
	}
	d.Profile = p
	return d, nil
}

// LoadDie prepares the die a CLI names by exactly one of a benchmark
// profile ("b13/2") or a .bench netlist path, and returns it with its
// display name. A non-zero spares spec adds the spare TSV sites before
// preparation.
func LoadDie(profile, netlistPath string, seed int64, spares SpareSpec) (*Die, string, error) {
	switch {
	case profile != "" && netlistPath != "":
		return nil, "", fmt.Errorf("pass -profile or -netlist, not both")
	case profile != "":
		p, err := ProfileByName(profile)
		if err != nil {
			return nil, "", err
		}
		d, err := PrepareDieWithSpares(p, seed, spares)
		if err != nil {
			return nil, "", err
		}
		return d, p.Name(), nil
	case netlistPath != "":
		f, err := os.Open(netlistPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		name := strings.TrimSuffix(netlistPath, ".bench")
		n, err := ParseNetlist(name, f)
		if err != nil {
			return nil, "", err
		}
		if err := AddSpareTSVs(n, spares); err != nil {
			return nil, "", err
		}
		d, err := PrepareParsed(n, seed)
		if err != nil {
			return nil, "", err
		}
		return d, name, nil
	default:
		return nil, "", fmt.Errorf("pass -profile or -netlist")
	}
}

// NewReplanPlanner clones the die (the caller's stays pristine), plans
// the baseline, and seeds the incremental-replan caches.
func NewReplanPlanner(d *Die, opts MinimizeOptions) (*ReplanPlanner, error) {
	return tsvrepair.NewPlanner(d, opts)
}

// Replan applies one fault delta to the planner's die — atomically
// rerouting every victim TSV to a spare site — and replans the patched
// die incrementally. The returned plan is certified equivalent to a
// from-scratch Minimize on the patched die: the planner's Rerun method
// produces that reference, and the differential suites in
// internal/tsvrepair and the replan-equivalence CI job hold the two
// bit-equal. A failed delta leaves die and plan untouched.
func Replan(p *ReplanPlanner, delta TSVDelta) (*MinimizeResult, []TSVRepair, error) {
	if p == nil {
		return nil, nil, fmt.Errorf("wcm3d: Replan needs a planner")
	}
	reps, err := p.Apply(delta)
	if err != nil {
		return nil, nil, err
	}
	res, err := p.Replan()
	if err != nil {
		return nil, reps, err
	}
	return res, reps, nil
}

// GeneratePatterns runs stuck-at ATPG on the wrapped die and returns the
// pattern set and its grade — the vectors Diagnose expects back from the
// tester.
func GeneratePatterns(d *Die, asn *Assignment, budget ATPGBudget) ([]Pattern, Testability, error) {
	return experiments.StuckAtPatterns(d, asn, budget)
}

// SimulateDefect plays the tester for a hypothetical defective die: it
// applies the pattern set to the wrapped die carrying the given fault and
// returns the syndrome (which patterns fail). Used to exercise Diagnose in
// tests and demos, and to build fault dictionaries.
func SimulateDefect(d *Die, asn *Assignment, f Fault, patterns []Pattern) (*Syndrome, error) {
	tn, err := scan.ApplyTestMode(d.Netlist, asn)
	if err != nil {
		return nil, err
	}
	return diagnose.Simulate(tn, patterns, f)
}

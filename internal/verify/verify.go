// Package verify is the independent plan checker: given the same inputs the
// optimizer saw (netlist, placement, library, timing) and a finished wrapper
// plan, it re-derives every invariant the paper's flow promises — full TSV
// controllability/observability, clique-partition validity (pairwise cone
// disjointness or threshold-bounded overlap, distance, capacitance budgets),
// and the per-reuse timing-slack budgets of the cap+wire model — from
// scratch, and reports everything that does not hold as a structured list of
// Violations.
//
// The point of the package is trust, not speed: it shares no code with the
// optimizer's hot path. Cones are walked into signal lists instead of the
// precomputed BitSet ConeSet, pair conditions are re-evaluated from
// the paper's formulas rather than replayed from graph state, and phase-two
// slacks are re-derived through internal/sta via the input's RefreshTiming
// hook. A bug in the optimizer's indexes, striping, or bitset algebra
// therefore cannot hide itself: the verifier would flag the plan.
//
// Plan is the entry point. The oracle (Oracle) and the fuzz harness
// (FuzzPlan) build on it; cmd/verify and the wcmd service expose it to
// operators.
package verify

import (
	"fmt"
	"math"

	"wcm3d/internal/cells"
	"wcm3d/internal/netlist"
	"wcm3d/internal/place"
	"wcm3d/internal/scan"
	"wcm3d/internal/sta"
	"wcm3d/internal/wcm"
)

// Code classifies a violation. Every invariant the verifier re-derives has
// its own code so tests (and operators) can assert on exactly which contract
// broke.
type Code string

// Violation codes.
const (
	// CodeEmptyGroup flags a group with no TSV members.
	CodeEmptyGroup Code = "empty-group"
	// CodeBadMember flags a member that is not a TSV of the right
	// direction (or not a valid signal/port at all).
	CodeBadMember Code = "bad-member"
	// CodeDuplicate flags a TSV or port claimed by two groups.
	CodeDuplicate Code = "duplicate-member"
	// CodeUncovered flags a TSV no group covers — the die would ship with
	// an untestable pre-bond interface.
	CodeUncovered Code = "uncovered-tsv"
	// CodeBadReuse flags a reused control/capture point that is not a
	// scan flip-flop.
	CodeBadReuse Code = "bad-reuse"
	// CodeFFDoubleUse flags a flip-flop reused by two groups.
	CodeFFDoubleUse Code = "ff-double-use"
	// CodeAnchorAlias flags two members of one group anchored on the same
	// signal: XOR folding of a signal with itself cancels, so the pair
	// would be unobservable.
	CodeAnchorAlias Code = "anchor-alias"
	// CodeConeOverlap flags shared combinational logic between two
	// members of a group that the thresholds (cov_th, p_th) do not admit —
	// or any overlap at all when the plan claims no overlap budget.
	CodeConeOverlap Code = "cone-overlap"
	// CodeCapBudget flags a shared group whose accumulated drive load
	// breaks cap_th.
	CodeCapBudget Code = "cap-budget"
	// CodePadLoad flags an inbound pad inside a shared group whose
	// downstream pin load exceeds what a library wrapper mux can drive.
	CodePadLoad Code = "pad-load"
	// CodeDistance flags two members of a group farther apart than d_th.
	CodeDistance Code = "distance"
	// CodeControlSlack flags a control-side reused flip-flop whose launch
	// slack cannot absorb the test-mux load the reuse hangs on its Q.
	CodeControlSlack Code = "control-slack"
	// CodeObserveSlack flags an observe-side reused flip-flop whose D
	// path cannot absorb the inserted test mux within s_th.
	CodeObserveSlack Code = "observe-slack"
	// CodeTapSlack flags an observed signal inside a shared group whose
	// driver slack cannot pay for the observation tap on top of s_th.
	CodeTapSlack Code = "tap-slack"
	// CodeSignoff flags a functional-mode timing violation of the plan's
	// physical test hardware (WNS < 0).
	CodeSignoff Code = "signoff"
	// CodeCoverageLoss and CodePatternGrowth are deep-mode advisories:
	// ATPG measured on the shared cones lost more coverage / grew more
	// patterns than the per-edge thresholds promise in aggregate.
	CodeCoverageLoss  Code = "measured-coverage-loss"
	CodePatternGrowth Code = "measured-pattern-growth"
)

// Violation is one broken invariant.
type Violation struct {
	// Code classifies the invariant.
	Code Code `json:"code"`
	// Where locates the group or pair, e.g. "control[3]".
	Where string `json:"where,omitempty"`
	// Signal names the offending signal when there is one.
	Signal string `json:"signal,omitempty"`
	// Got and Limit quantify threshold violations (Got broke Limit).
	Got   float64 `json:"got,omitempty"`
	Limit float64 `json:"limit,omitempty"`
	// Detail is the human-readable account.
	Detail string `json:"detail"`
}

// String renders the violation for logs and CLI output.
func (v Violation) String() string {
	s := string(v.Code)
	if v.Where != "" {
		s += " at " + v.Where
	}
	if v.Signal != "" {
		s += " (" + v.Signal + ")"
	}
	return s + ": " + v.Detail
}

// Options selects what the verifier checks beyond structural validity.
type Options struct {
	// Thresholds is the effective optimizer configuration the plan claims
	// to honor (Result.Options of a wcm.Run, or any Options normalized by
	// WithDefaults). Nil verifies structure and coverage only — the right
	// mode for plans from solvers without a threshold contract (full-wrap,
	// Li's matching).
	Thresholds *wcm.Options
	// Signoff additionally re-times the die with the plan's physical test
	// hardware in place (scan.TimeFunctionalMode: the functional view
	// ApplyFunctionalMode would build, timed on flat arrays with test_en
	// tied low at the base clock); WNS < 0 becomes a CodeSignoff
	// violation, and a plan whose view cannot be built is one too.
	Signoff bool
	// Deep additionally re-measures overlapped-cone sharing with real
	// ATPG on the shared cones (see deep.go). Findings are reported as
	// Warnings: ATPG outcomes on small fault subsets are noisy, so they
	// advise rather than fail certification.
	Deep bool
}

// Result is the verifier's report.
type Result struct {
	// Violations lists every broken invariant (empty means certified).
	Violations []Violation `json:"violations,omitempty"`
	// Warnings lists deep-mode advisories that do not fail certification.
	Warnings []Violation `json:"warnings,omitempty"`
	// Groups, Pairs and ReusedFFs count what was checked.
	Groups    int `json:"groups"`
	Pairs     int `json:"pairs"`
	ReusedFFs int `json:"reused_ffs"`
	// SignoffWNSPS is the functional-mode worst negative slack when
	// Options.Signoff ran (NaN otherwise).
	SignoffWNSPS float64 `json:"signoff_wns_ps"`
	// Deep holds the deep-mode measurement when Options.Deep ran.
	Deep *DeepStats `json:"deep,omitempty"`
}

// OK reports whether the plan certified with zero violations.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Summary renders a one-line outcome.
func (r *Result) Summary() string {
	if r.OK() {
		return fmt.Sprintf("certified: %d groups, %d pairs, %d reused FFs, 0 violations",
			r.Groups, r.Pairs, r.ReusedFFs)
	}
	return fmt.Sprintf("REJECTED: %d violations across %d groups", len(r.Violations), r.Groups)
}

// Plan verifies a wrapper plan against the die it was planned for. The
// input is the same bundle the optimizer consumed; vo.Thresholds carries
// the contract the plan claims to honor. Violations land in the Result —
// an error return means the verifier itself could not run (missing netlist,
// failed timing re-derivation), not that the plan is bad.
func Plan(in wcm.Input, asn *scan.Assignment, vo Options) (*Result, error) {
	c, err := newChecker(in, asn, vo)
	if err != nil {
		return nil, err
	}
	if err := c.structural(asn); err != nil {
		return nil, err
	}
	if vo.Signoff {
		if err := c.signoff(asn); err != nil {
			return nil, err
		}
	}
	if vo.Deep {
		if err := c.deep(asn); err != nil {
			return nil, err
		}
	}
	return c.res, nil
}

// newChecker validates Plan's arguments and sets up a run on the cone
// walks of cones.go.
func newChecker(in wcm.Input, asn *scan.Assignment, vo Options) (*checker, error) {
	if in.Netlist == nil || in.Lib == nil {
		return nil, fmt.Errorf("verify: netlist and library are required")
	}
	if asn == nil {
		return nil, fmt.Errorf("verify: nil assignment")
	}
	th := vo.Thresholds
	if th != nil {
		eff := th.WithDefaults()
		th = &eff
		if in.Timing == nil {
			return nil, fmt.Errorf("verify: threshold checks need the base timing analysis")
		}
	}
	n := in.Netlist
	seen := make([]bool, n.NumGates())
	return &checker{
		in:          in,
		n:           n,
		lib:         in.Lib,
		th:          th,
		res:         &Result{SignoffWNSPS: math.NaN()},
		graph:       n.Graph(),
		sharedGates: make(map[netlist.SignalID]bool),
		fanin:       func(s netlist.SignalID) []netlist.SignalID { return naiveFaninCone(n, s, seen) },
		fanout:      func(s netlist.SignalID) []netlist.SignalID { return naiveFanoutCone(n, s, seen) },
		overlap: func(a, b []netlist.SignalID, collect map[netlist.SignalID]bool) int {
			return maskedOverlap(n, a, b, seen, collect)
		},
	}, nil
}

// structural runs every check but signoff and deep mode: membership,
// pairwise clique conditions, budgets, timing admission and coverage.
func (c *checker) structural(asn *scan.Assignment) error {
	ctlTiming, obsTiming, err := c.phaseTimings(asn)
	if err != nil {
		return err
	}
	c.checkControl(asn, ctlTiming)
	c.checkObserve(asn, obsTiming)
	c.checkCoverage(asn)
	c.res.ReusedFFs = asn.ReusedFFs()
	return nil
}

// checker carries one verification run.
type checker struct {
	in  wcm.Input
	n   *netlist.Netlist
	lib *cells.Library
	th  *wcm.Options
	res *Result

	graph *netlist.Graph

	// ffUse maps a reused flip-flop to the first group that claimed it.
	ffUse map[netlist.SignalID]string
	// seenTSV / seenPort track coverage and duplicates.
	seenTSV  map[netlist.SignalID]bool
	seenPort map[int]bool

	// Overlap bookkeeping for deep mode.
	overlapPairs int
	sharedGates  map[netlist.SignalID]bool

	// fanin, fanout and overlap are the cone primitives the pair checks
	// read: the walks of cones.go, which the differential test swaps for
	// its map-based reference.
	fanin, fanout func(netlist.SignalID) []netlist.SignalID
	overlap       func(a, b []netlist.SignalID, collect map[netlist.SignalID]bool) int
}

func (c *checker) add(v Violation) { c.res.Violations = append(c.res.Violations, v) }

func (c *checker) warn(v Violation) { c.res.Warnings = append(c.res.Warnings, v) }

// member is one re-derived clique member: its anchor signal, naive cone,
// physical position and post-bond drive load.
type member struct {
	label  string
	anchor netlist.SignalID
	cone   []netlist.SignalID
	pos    place.Point
	load2  float64
	isFF   bool
	// sig is the TSV pad (control) or the observed port signal (observe);
	// InvalidSignal for the reused flip-flop member.
	sig netlist.SignalID
}

// phaseTimings re-derives the per-phase timing analyses. The first phase
// planned against the base analysis; the second against the refreshed one
// (base hardware plus the first phase's commitments), which the verifier
// re-computes through the input's RefreshTiming hook — the same
// internal/sta path, driven from the finished plan rather than optimizer
// state. Without thresholds or a refresh hook both sides check against the
// base analysis.
func (c *checker) phaseTimings(asn *scan.Assignment) (ctl, obs *sta.Result, err error) {
	ctl, obs = c.in.Timing, c.in.Timing
	if c.th == nil || c.in.Timing == nil || c.in.RefreshTiming == nil {
		return ctl, obs, nil
	}
	firstInbound := phaseOneInbound(*c.th, c.n)
	var partial *scan.Assignment
	switch {
	case firstInbound && len(asn.Observe) > 0:
		partial = &scan.Assignment{Control: asn.Control}
	case !firstInbound && len(asn.Control) > 0:
		partial = &scan.Assignment{Observe: asn.Observe}
	default:
		return ctl, obs, nil // the second phase has nothing to check
	}
	refreshed, err := c.in.RefreshTiming(partial)
	if err != nil {
		return nil, nil, fmt.Errorf("verify: re-deriving second-phase timing: %w", err)
	}
	if refreshed != nil {
		if firstInbound {
			obs = refreshed
		} else {
			ctl = refreshed
		}
	}
	return ctl, obs, nil
}

// phaseOneInbound re-derives which TSV set the optimizer processed first.
func phaseOneInbound(o wcm.Options, n *netlist.Netlist) bool {
	nIn, nOut := len(n.InboundTSVs()), len(n.OutboundTSVs())
	switch o.Order {
	case wcm.OrderSmallerFirst:
		return nIn < nOut
	case wcm.OrderInboundFirst:
		return true
	case wcm.OrderOutboundFirst:
		return false
	default: // larger-first, the paper's policy
		return nIn >= nOut
	}
}

// claimFF checks reuse validity and cross-group exclusivity.
func (c *checker) claimFF(ff netlist.SignalID, where string) bool {
	if c.ffUse == nil {
		c.ffUse = make(map[netlist.SignalID]string)
	}
	if !c.n.Valid(ff) || c.n.TypeOf(ff) != netlist.GateDFF {
		c.add(Violation{Code: CodeBadReuse, Where: where,
			Detail: fmt.Sprintf("reused control/capture point %d is not a scan flip-flop", ff)})
		return false
	}
	if prev, dup := c.ffUse[ff]; dup {
		c.add(Violation{Code: CodeFFDoubleUse, Where: where, Signal: c.n.NameOf(ff),
			Detail: fmt.Sprintf("flip-flop already reused by %s", prev)})
		return false
	}
	c.ffUse[ff] = where
	return true
}

// checkControl verifies the inbound side: membership, pairwise clique
// conditions over naive fan-out cones, the cap_th budget, the pad-load node
// filter, and the reused flip-flop's launch-slack budget.
func (c *checker) checkControl(asn *scan.Assignment, timing *sta.Result) {
	c.seenTSV = make(map[netlist.SignalID]bool)
	for i, g := range asn.Control {
		where := fmt.Sprintf("control[%d]", i)
		c.res.Groups++
		if len(g.TSVs) == 0 {
			c.add(Violation{Code: CodeEmptyGroup, Where: where, Detail: "group has no TSV members"})
			continue
		}
		var ms []member
		broken := false
		for _, t := range g.TSVs {
			if !c.n.Valid(t) || c.n.TypeOf(t) != netlist.GateTSVIn {
				c.add(Violation{Code: CodeBadMember, Where: where,
					Detail: fmt.Sprintf("member %d is not an inbound TSV pad", t)})
				broken = true
				continue
			}
			if c.seenTSV[t] {
				c.add(Violation{Code: CodeDuplicate, Where: where, Signal: c.n.NameOf(t),
					Detail: "inbound TSV claimed by two groups"})
				broken = true
				continue
			}
			c.seenTSV[t] = true
			m := member{
				label:  c.n.NameOf(t),
				anchor: t,
				cone:   c.fanout(t),
				load2:  c.lib.TSVCapFF + c.lib.Of(netlist.GateMux2).InputCapFF,
				sig:    t,
			}
			if c.in.Placement != nil {
				m.pos = c.in.Placement.Coords[t]
			}
			ms = append(ms, m)
		}
		if g.Reused() {
			if c.claimFF(g.ReusedFF, where) {
				m := member{
					label:  c.n.NameOf(g.ReusedFF),
					anchor: g.ReusedFF,
					cone:   c.fanout(g.ReusedFF),
					isFF:   true,
					sig:    netlist.InvalidSignal,
				}
				if c.in.Placement != nil {
					m.pos = c.in.Placement.Coords[g.ReusedFF]
				}
				ms = append(ms, m)
			} else {
				broken = true
			}
		}
		if broken {
			continue // malformed groups get no threshold verdicts
		}
		c.checkPairs(where, ms)
		c.checkGroupBudgets(where, ms, true, timing)
	}
}

// checkObserve verifies the outbound side over naive fan-in cones.
func (c *checker) checkObserve(asn *scan.Assignment, timing *sta.Result) {
	c.seenPort = make(map[int]bool)
	for i, g := range asn.Observe {
		where := fmt.Sprintf("observe[%d]", i)
		c.res.Groups++
		if len(g.Ports) == 0 {
			c.add(Violation{Code: CodeEmptyGroup, Where: where, Detail: "group has no port members"})
			continue
		}
		var ms []member
		broken := false
		for _, p := range g.Ports {
			if p < 0 || p >= len(c.n.Outputs) || c.n.Outputs[p].Class != netlist.PortTSVOut {
				c.add(Violation{Code: CodeBadMember, Where: where,
					Detail: fmt.Sprintf("member %d is not an outbound TSV port", p)})
				broken = true
				continue
			}
			if c.seenPort[p] {
				c.add(Violation{Code: CodeDuplicate, Where: where, Signal: c.n.Outputs[p].Name,
					Detail: "outbound TSV port claimed by two groups"})
				broken = true
				continue
			}
			c.seenPort[p] = true
			sig := c.n.Outputs[p].Signal
			m := member{
				label:  c.n.Outputs[p].Name,
				anchor: sig,
				cone:   c.fanin(sig),
				load2:  c.lib.TSVCapFF + c.lib.Of(netlist.GateXor).InputCapFF,
				sig:    sig,
			}
			if c.in.Placement != nil {
				m.pos = c.in.Placement.Coords[sig]
			}
			ms = append(ms, m)
		}
		if g.Reused() {
			if c.claimFF(g.ReusedFF, where) {
				d := c.n.Gate(g.ReusedFF).Fanin[0]
				m := member{
					label:  c.n.NameOf(g.ReusedFF),
					anchor: d,
					cone:   c.fanin(d),
					isFF:   true,
					sig:    netlist.InvalidSignal,
				}
				if c.in.Placement != nil {
					m.pos = c.in.Placement.Coords[g.ReusedFF]
				}
				ms = append(ms, m)
			} else {
				broken = true
			}
		}
		if broken {
			continue
		}
		c.checkPairs(where, ms)
		c.checkGroupBudgets(where, ms, false, timing)
	}
}

// checkPairs re-derives the clique property: every pair of members must
// have satisfied Algorithm 1's edge conditions — distinct anchors, cone
// disjointness (or threshold-admitted overlap), and Manhattan distance
// under d_th. Merging only ever contracts existing edges, so a valid final
// clique is pairwise-valid; any pair that fails here could never have been
// grouped by a correct optimizer.
func (c *checker) checkPairs(where string, ms []member) {
	for i := 0; i < len(ms); i++ {
		for j := i + 1; j < len(ms); j++ {
			a, b := &ms[i], &ms[j]
			c.res.Pairs++
			if a.anchor == b.anchor {
				c.add(Violation{Code: CodeAnchorAlias, Where: where, Signal: c.n.NameOf(a.anchor),
					Detail: fmt.Sprintf("%s and %s anchor on the same signal; XOR folding cancels", a.label, b.label)})
				continue
			}
			shared := c.overlap(a.cone, b.cone, c.sharedGates)
			if shared > 0 {
				c.overlapPairs++
				c.checkOverlap(where, a, b, shared)
			}
			if c.th != nil && c.in.Placement != nil && !math.IsInf(c.th.DistThUM, 1) {
				if d := a.pos.ManhattanTo(b.pos); d >= c.th.DistThUM {
					c.add(Violation{Code: CodeDistance, Where: where, Got: d, Limit: c.th.DistThUM,
						Detail: fmt.Sprintf("%s and %s are %.1f µm apart, d_th is %.1f µm", a.label, b.label, d, c.th.DistThUM)})
				}
			}
		}
	}
}

// checkOverlap judges one overlapping pair against the testability budget.
// The pair's label is built only for a violation: certified plans hold
// thousands of pairs and report none.
func (c *checker) checkOverlap(where string, a, b *member, shared int) {
	pair := func() string { return fmt.Sprintf("%s: %s × %s", where, a.label, b.label) }
	if c.th == nil {
		c.add(Violation{Code: CodeConeOverlap, Where: where, Got: float64(shared),
			Detail: fmt.Sprintf("%s share %d combinational gates but the plan claims no overlap budget", pair(), shared)})
		return
	}
	if !c.th.AllowOverlap {
		c.add(Violation{Code: CodeConeOverlap, Where: where, Got: float64(shared),
			Detail: fmt.Sprintf("%s share %d combinational gates with overlap disabled", pair(), shared)})
		return
	}
	covLoss, patInc := wcm.SharePenalty(c.n, shared)
	if !(covLoss < c.th.CovThFrac && patInc < c.th.PatThCount) {
		c.add(Violation{Code: CodeConeOverlap, Where: where,
			Got: covLoss, Limit: c.th.CovThFrac,
			Detail: fmt.Sprintf("%s share %d gates: estimated coverage loss %.4f (cov_th %.4f), pattern increase %d (p_th %d)",
				pair(), shared, covLoss, c.th.CovThFrac, patInc, c.th.PatThCount)})
	}
}

// checkGroupBudgets applies the budgets that gate sharing and reuse: the
// accumulated cap_th load, the inbound pad-load node filter, the outbound
// tap-slack node filter, and the reused flip-flop's slack budget. A
// dedicated singleton (one TSV, no flip-flop) carries none of them — that
// is exactly the fallback the optimizer excludes filtered TSVs to.
func (c *checker) checkGroupBudgets(where string, ms []member, inbound bool, timing *sta.Result) {
	if c.th == nil {
		return
	}
	nTSV := 0
	hasFF := false
	var ff *member
	sum := 0.0
	for i := range ms {
		if ms[i].isFF {
			hasFF = true
			ff = &ms[i]
			continue
		}
		nTSV++
		sum += ms[i].load2
	}
	sharedGroup := nTSV >= 2 || hasFF
	if !sharedGroup {
		return
	}
	if !(sum < c.th.CapThFF) {
		c.add(Violation{Code: CodeCapBudget, Where: where, Got: sum, Limit: c.th.CapThFF,
			Detail: fmt.Sprintf("accumulated drive load %.1f fF reaches cap_th %.1f fF", sum, c.th.CapThFF)})
	}
	for i := range ms {
		m := &ms[i]
		if m.isFF {
			continue
		}
		if inbound {
			pinLoad := 0.0
			for _, fo := range c.graph.FanoutOf(m.sig) {
				pinLoad += c.lib.Of(c.n.TypeOf(fo)).InputCapFF
			}
			if !(pinLoad < wcm.PadCapThFF) {
				c.add(Violation{Code: CodePadLoad, Where: where, Signal: m.label,
					Got: pinLoad, Limit: wcm.PadCapThFF,
					Detail: fmt.Sprintf("pad drives %.1f fF of pins, above the %.1f fF wrapper-mux bound; it needed a dedicated cell", pinLoad, wcm.PadCapThFF)})
			}
		} else if timing != nil {
			slack := timing.SlackPS(m.sig)
			tap := c.tapCostPS(m.sig)
			if !(slack-c.th.SlackThPS > tap) {
				c.add(Violation{Code: CodeTapSlack, Where: where, Signal: m.label,
					Got: slack - c.th.SlackThPS, Limit: tap,
					Detail: fmt.Sprintf("driver slack %.1f ps minus s_th %.1f ps cannot pay the %.1f ps observation tap", slack, c.th.SlackThPS, tap)})
			}
		}
	}
	if hasFF && c.th.Timing == wcm.TimingCapWire && timing != nil {
		c.checkFFSlack(where, ff, inbound, timing)
	}
}

// checkFFSlack re-derives the accurate model's per-flip-flop eligibility:
// control-side reuse hangs one repeater segment plus a mux pin on Q
// (budgeted against SlackSpendFrac of launch slack); observe-side reuse
// inserts a mux into the D path (budgeted against capture slack over s_th).
func (c *checker) checkFFSlack(where string, ff *member, inbound bool, timing *sta.Result) {
	lib := c.lib
	if inbound {
		r := lib.Of(netlist.GateDFF).DriveResKOhm
		deltaPS := r * (lib.DriverWireCapFF(lib.TestBufferDistUM) + lib.Of(netlist.GateMux2).InputCapFF)
		budget := c.th.SlackSpendFrac * timing.SlackPS(ff.anchor)
		if !(deltaPS <= budget) {
			c.add(Violation{Code: CodeControlSlack, Where: where, Signal: ff.label,
				Got: deltaPS, Limit: budget,
				Detail: fmt.Sprintf("test-mux load adds %.1f ps on Q but the slack budget is %.1f ps", deltaPS, budget)})
		}
		return
	}
	mux := lib.Of(netlist.GateMux2)
	muxDelay := mux.IntrinsicPS + mux.DriveResKOhm*lib.Of(netlist.GateDFF).InputCapFF
	budget := timing.SlackPS(ff.anchor) - c.th.SlackThPS
	if !(muxDelay <= budget) {
		c.add(Violation{Code: CodeObserveSlack, Where: where, Signal: ff.label,
			Got: muxDelay, Limit: budget,
			Detail: fmt.Sprintf("capture mux inserts %.1f ps on D but only %.1f ps of slack remains above s_th", muxDelay, budget)})
	}
}

// tapCostPS re-derives the functional delay an observation tap puts on a
// driver under the cap+wire model (zero under capacitance-only, which
// cannot see it).
func (c *checker) tapCostPS(sig netlist.SignalID) float64 {
	if c.th.Timing != wcm.TimingCapWire {
		return 0
	}
	xor := c.lib.Of(netlist.GateXor)
	drive := c.lib.Of(c.n.TypeOf(sig)).DriveResKOhm
	return drive * (xor.InputCapFF + c.lib.DriverWireCapFF(c.lib.TestBufferDistUM))
}

// checkCoverage demands every TSV of the die appears in some group.
func (c *checker) checkCoverage(asn *scan.Assignment) {
	for _, t := range c.n.InboundTSVs() {
		if !c.seenTSV[t] {
			c.add(Violation{Code: CodeUncovered, Signal: c.n.NameOf(t),
				Detail: "inbound TSV has no control point; uncontrollable pre-bond"})
		}
	}
	for _, p := range c.n.OutboundTSVs() {
		if !c.seenPort[p] {
			c.add(Violation{Code: CodeUncovered, Signal: c.n.Outputs[p].Name,
				Detail: "outbound TSV has no capture point; unobservable pre-bond"})
		}
	}
}

// signoff times the plan's physical hardware in the functional view with
// test_en tied low — the Table III check, run independently of whatever
// the caller's pipeline reported.
func (c *checker) signoff(asn *scan.Assignment) error {
	if c.in.Placement == nil || c.in.Timing == nil || c.in.Timing.Config.ClockPS <= 0 {
		return fmt.Errorf("verify: signoff needs placement and base timing at a positive clock")
	}
	timed, err := scan.TimeFunctionalMode(c.n, c.in.Placement, c.lib, asn, c.in.Timing.Config.ClockPS)
	if err != nil {
		// A plan that cannot even be materialized is broken; the
		// structural checks above normally catch this first.
		c.add(Violation{Code: CodeSignoff, Detail: "plan cannot be materialized: " + err.Error()})
		return nil
	}
	wns := timed.WNS()
	c.res.SignoffWNSPS = wns
	if wns < 0 {
		c.add(Violation{Code: CodeSignoff, Got: wns, Limit: 0,
			Detail: fmt.Sprintf("functional-mode WNS %.1f ps with the test hardware in place", wns)})
	}
	return nil
}

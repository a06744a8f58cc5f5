// Package wcm implements the paper's contribution: timing-aware wrapper-cell
// minimization for pre-bond testing of 3D-IC dies.
//
// The flow mirrors the paper's Figure 6. Given a placed, timed die:
//
//  1. TSV analysis picks which TSV set (inbound or outbound) to process
//     first — the larger one, which the paper's Table I shows yields
//     better coverage with fewer cells;
//  2. graph construction (Algorithm 1) builds the sharing graph under a
//     capacitance threshold (cap_th), a slack threshold (s_th), a distance
//     threshold (d_th), and — new versus Agrawal's method — testability
//     thresholds (cov_th, p_th) that admit edges between nodes with
//     overlapping fan-in/fan-out cones;
//  3. heuristic clique partitioning (Algorithm 2) repeatedly merges the
//     minimum-degree adjacent pair while the merged clique's post-bond
//     drive load stays under cap_th;
//  4. cliques become the wrapper plan: a clique with a scan flip-flop
//     reuses it, a clique without one gets a single additional wrapper
//     cell.
//
// Setting Order to inbound-first, Timing to capacitance-only, and
// AllowOverlap to false reproduces Agrawal et al. (TCAD'15) — built by
// experiments.AgrawalOptions — which the paper (and this reproduction)
// compares against.
package wcm

import (
	"fmt"
	"math"

	"wcm3d/internal/cells"
	"wcm3d/internal/netlist"
	"wcm3d/internal/place"
	"wcm3d/internal/scan"
	"wcm3d/internal/sta"
)

// OrderPolicy selects which TSV set is processed first. Flip-flops consumed
// by the first phase are unavailable to the second, so the order matters
// (paper Table I).
type OrderPolicy uint8

// Ordering policies.
const (
	// OrderLargerFirst processes the larger TSV set first — the paper's
	// proposal.
	OrderLargerFirst OrderPolicy = iota + 1
	// OrderInboundFirst always starts with inbound TSVs — Agrawal's
	// fixed order.
	OrderInboundFirst
	// OrderOutboundFirst always starts with outbound TSVs.
	OrderOutboundFirst
	// OrderSmallerFirst processes the smaller set first (ablation).
	OrderSmallerFirst
)

// String names the policy.
func (o OrderPolicy) String() string {
	switch o {
	case OrderLargerFirst:
		return "larger-first"
	case OrderInboundFirst:
		return "inbound-first"
	case OrderOutboundFirst:
		return "outbound-first"
	case OrderSmallerFirst:
		return "smaller-first"
	default:
		return fmt.Sprintf("OrderPolicy(%d)", uint8(o))
	}
}

// TimingModel selects how sharing cost is computed.
type TimingModel uint8

// Timing models.
const (
	// TimingCapWire includes routed-wire capacitance and delay derived
	// from placement distance — the paper's "accurate timing model".
	TimingCapWire TimingModel = iota + 1
	// TimingCapOnly counts pin capacitance only, ignoring wire — the
	// model the paper attributes to Agrawal's method.
	TimingCapOnly
)

// String names the model.
func (m TimingModel) String() string {
	switch m {
	case TimingCapWire:
		return "cap+wire"
	case TimingCapOnly:
		return "cap-only"
	default:
		return fmt.Sprintf("TimingModel(%d)", uint8(m))
	}
}

// Options configures a WCM run. DefaultOptions gives the paper's
// "ours, performance-optimized" configuration.
type Options struct {
	// CapThFF is cap_th: the bound (fF) a shared wrapper cell's post-bond
	// drive load must stay strictly under. Algorithm 2 merges two cliques
	// only while the sum of both sides' loads is below it.
	CapThFF float64
	// SlackThPS is s_th: the minimum timing slack (ps) an outbound TSV's
	// driver must retain after the observation hardware is added.
	SlackThPS float64
	// DistThUM is d_th: the maximum Manhattan distance (µm) between two
	// nodes that may share. Use math.Inf(1) to disable (Agrawal).
	DistThUM float64
	// AllowOverlap admits edges between nodes with overlapping
	// fan-in/fan-out cones, subject to CovThFrac and PatThCount.
	AllowOverlap bool
	// CovThFrac is cov_th: the maximum estimated fault-coverage decrease
	// (fraction, e.g. 0.005 = 0.5%) an overlapped edge may cost.
	CovThFrac float64
	// PatThCount is p_th: the maximum estimated pattern-count increase
	// an overlapped edge may cost.
	PatThCount int
	// Order picks the TSV-set processing order.
	Order OrderPolicy
	// Timing picks the sharing-cost model.
	Timing TimingModel
	// SlackSpendFrac is the fraction of a signal's slack the accurate
	// (cap+wire) model lets test hardware consume: launch-side load
	// growth and capture-side inserted delay are both budgeted against
	// it. Zero means the default 0.20; +Inf disables slack budgeting
	// (the paper's area-optimized scenario). Ignored under TimingCapOnly.
	SlackSpendFrac float64
	// Workers bounds the worker pool a single Run uses for cone and edge
	// construction. 0 (or negative) means GOMAXPROCS; 1 forces the fully
	// serial path. The produced plan and statistics are bit-identical at
	// every setting — parallelism changes latency only.
	Workers int
}

// PadCapThFF filters inbound TSVs at node construction: a pad whose
// downstream pin load (fF) reaches this bound, the drive capability of a
// large library wrapper mux, gets a dedicated, up-sized wrapper cell instead
// of entering the sharing graph.
const PadCapThFF = 400.0

// DefaultOptions returns the paper's configuration: larger set first,
// wire-aware timing, overlapped cones admitted under cov_th = 0.5 % and
// p_th = 10.
func DefaultOptions() Options {
	return Options{
		CapThFF:      150,
		SlackThPS:    0,
		DistThUM:     400,
		AllowOverlap: true,
		CovThFrac:    0.005,
		PatThCount:   10,
		Order:        OrderLargerFirst,
		Timing:       TimingCapWire,
	}
}

// WithDefaults returns the effective configuration a Run would use: every
// zero field replaced by its documented default. Result.Options already
// echoes this; the exported form lets external checkers (internal/verify)
// normalize a hand-built Options the same way without re-implementing the
// defaulting rules.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.CapThFF == 0 {
		o.CapThFF = 150
	}
	if o.DistThUM == 0 {
		o.DistThUM = math.Inf(1)
	}
	if o.Order == 0 {
		o.Order = OrderLargerFirst
	}
	if o.Timing == 0 {
		o.Timing = TimingCapWire
	}
	if o.SlackSpendFrac == 0 {
		o.SlackSpendFrac = 0.20
	}
	return o
}

// Input bundles the die artefacts the flow consumes.
type Input struct {
	// Netlist is the die under DFT insertion.
	Netlist *netlist.Netlist
	// Lib supplies cell capacitances, drive strengths and wire RC.
	Lib *cells.Library
	// Placement locates every cell and pad (nil only with
	// TimingCapOnly and DistThUM = +Inf).
	Placement *place.Placement
	// Timing is the base static timing analysis of the die under the
	// target clock.
	Timing *sta.Result
	// RefreshTiming, when non-nil, is called between the two TSV-set
	// phases with the partial wrapper plan so far; the returned analysis
	// replaces Timing for the second phase. This is the cross-phase
	// "update capacity load information" of the paper's flow: hardware
	// committed for the first set consumes slack the second set can no
	// longer spend.
	RefreshTiming func(partial *scan.Assignment) (*sta.Result, error)
}

func (in Input) validate(opts Options) error {
	if in.Netlist == nil || in.Lib == nil || in.Timing == nil {
		return fmt.Errorf("wcm: Netlist, Lib and Timing are required")
	}
	needPlace := opts.Timing == TimingCapWire || !math.IsInf(opts.DistThUM, 1)
	if needPlace && in.Placement == nil {
		return fmt.Errorf("wcm: placement required for %s timing with d_th=%v", opts.Timing, opts.DistThUM)
	}
	if in.Placement != nil && in.Placement.Netlist != in.Netlist {
		return fmt.Errorf("wcm: placement belongs to a different netlist")
	}
	if in.Timing.Netlist != in.Netlist {
		return fmt.Errorf("wcm: timing analysis belongs to a different netlist")
	}
	return nil
}

// PhaseStats reports the graph size of one phase (inbound or outbound) —
// the quantities Figure 7 of the paper plots.
type PhaseStats struct {
	// Inbound reports which TSV set the phase processed.
	Inbound bool
	// Nodes and Edges size the constructed graph.
	Nodes int
	Edges int
	// OverlapEdges counts edges admitted despite overlapping cones
	// (zero unless AllowOverlap).
	OverlapEdges int
	// FilteredTSVs counts TSVs excluded at node construction (they get
	// dedicated wrapper cells without entering the graph).
	FilteredTSVs int
	// Cliques counts the partition's cliques containing >= 1 TSV.
	Cliques int
	// Merges and EdgeDeletes count partitioning actions (diagnostics).
	Merges      int
	EdgeDeletes int
}

// Result is the outcome of a WCM run.
type Result struct {
	// Assignment is the wrapper plan, consumable by internal/scan.
	Assignment *scan.Assignment
	// ReusedFFs counts scan flip-flops reused as wrapper cells.
	ReusedFFs int
	// AdditionalCells counts dedicated wrapper cells inserted.
	AdditionalCells int
	// Phases holds per-phase graph statistics in processing order.
	Phases []PhaseStats
	// Options echoes the effective configuration.
	Options Options
}

// TotalEdges sums the graph edges across phases (Figure 7's metric).
func (r *Result) TotalEdges() int {
	t := 0
	for _, p := range r.Phases {
		t += p.Edges
	}
	return t
}

// TotalOverlapEdges sums overlapped-cone edges across phases.
func (r *Result) TotalOverlapEdges() int {
	t := 0
	for _, p := range r.Phases {
		t += p.OverlapEdges
	}
	return t
}

// AreaUM2 reports the plan's DFT area overhead under a library: each
// dedicated wrapper cell costs a full cell, each reused flip-flop costs a
// test mux on the control side or a mux plus XOR on the observe side, and
// every fold stage adds an XOR. This is the metric the paper's
// minimization ultimately serves.
func (r *Result) AreaUM2(lib *cells.Library) float64 {
	area := 0.0
	for _, g := range r.Assignment.Control {
		if g.Reused() {
			area += lib.ScanMuxAreaUM2 * float64(len(g.TSVs))
		} else {
			area += lib.WrapperCellAreaUM2 + lib.ScanMuxAreaUM2*float64(len(g.TSVs)-1)
		}
	}
	for _, g := range r.Assignment.Observe {
		stages := float64(len(g.Ports) - 1)
		if g.Reused() {
			// Mux + fold XOR on the D path, plus one XOR per extra member.
			area += 2*lib.ScanMuxAreaUM2 + lib.ScanMuxAreaUM2*stages
		} else {
			area += lib.WrapperCellAreaUM2 + lib.ScanMuxAreaUM2*stages
		}
	}
	return area
}

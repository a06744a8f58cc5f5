// Package experiments reproduces every table and figure of the paper's
// evaluation section (SOCC 2019, §V):
//
//	Table I    — TSV-set ordering under Agrawal's method (b12)
//	Table II   — benchmark characteristics (24 ITC'99 dies)
//	Table III  — reused FFs / additional cells / timing violations,
//	             Agrawal vs ours × area-optimized vs performance-optimized
//	Table IV   — stuck-at & transition coverage and pattern counts
//	Table V    — overlapped-cone sharing on/off (b20-b22)
//	Figure 7   — graph edge growth from overlapped-cone sharing
//
// Each experiment takes the list of die profiles to run, so callers choose
// between the paper's full 24-die suite (cmd/tables) and small subsets
// (unit tests, testing.B benchmarks).
package experiments

import (
	"context"
	"fmt"
	"math"

	"wcm3d/internal/cells"
	"wcm3d/internal/faults"
	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
	"wcm3d/internal/par"
	"wcm3d/internal/place"
	"wcm3d/internal/scan"
	"wcm3d/internal/sta"
	"wcm3d/internal/wcm"
)

// Die bundles one prepared benchmark die: generated, placed, and timed,
// with its fault universes enumerated on the functional netlist.
type Die struct {
	Profile   netgen.Profile
	Netlist   *netlist.Netlist
	Lib       *cells.Library
	Placement *place.Placement
	// ClockPS is the die's clock period: the post-DFT-overhead critical
	// path plus a small margin (see PrepareDie).
	ClockPS float64
	// MarginPS is the timing headroom the clock leaves above the
	// unavoidable DFT overhead; the tight scenario's thresholds derive
	// from it.
	MarginPS float64
	// Timing is the base analysis of the bare die at ClockPS.
	Timing *sta.Result
	// StuckAt and Transition are the fault universes (functional
	// netlist), shared by every wrapper variant of the die.
	StuckAt    []faults.Fault
	Transition []faults.TransitionFault
}

// Input packages the die for the WCM solvers, including the cross-phase
// timing refresh: after the first TSV set commits its hardware, the second
// set plans against an analysis that includes it (plus dedicated cells at
// every not-yet-covered TSV, the same reference convention the clock is
// derived from).
func (d *Die) Input() wcm.Input {
	return wcm.Input{
		Netlist:   d.Netlist,
		Lib:       d.Lib,
		Placement: d.Placement,
		Timing:    d.Timing,
		RefreshTiming: func(partial *scan.Assignment) (*sta.Result, error) {
			return d.projectPartial(partial)
		},
	}
}

// projectPartial analyzes the die with the partial plan's hardware plus
// full-wrap cells on uncovered TSVs, and projects arrivals/required times
// back onto the original signals (as PrepareNetlist does for the full-wrap
// reference).
func (d *Die) projectPartial(partial *scan.Assignment) (*sta.Result, error) {
	n := d.Netlist
	full := scan.FullWrap(n)
	combined := &scan.Assignment{BufferedRouting: true}
	covered := make(map[netlist.SignalID]bool)
	for _, g := range partial.Control {
		combined.Control = append(combined.Control, g)
		for _, t := range g.TSVs {
			covered[t] = true
		}
	}
	coveredPort := make(map[int]bool)
	for _, g := range partial.Observe {
		combined.Observe = append(combined.Observe, g)
		for _, p := range g.Ports {
			coveredPort[p] = true
		}
	}
	for _, g := range full.Control {
		if !covered[g.TSVs[0]] {
			combined.Control = append(combined.Control, g)
		}
	}
	for _, g := range full.Observe {
		if !coveredPort[g.Ports[0]] {
			combined.Observe = append(combined.Observe, g)
		}
	}
	fn, fpl, err := scan.ApplyFunctionalMode(n, d.Placement, d.Lib, combined)
	if err != nil {
		return nil, err
	}
	timed, err := sta.Analyze(fn, d.Lib, sta.Config{
		ClockPS:   d.ClockPS,
		Placement: fpl,
		TieLow:    functionalCase(fn),
	})
	if err != nil {
		return nil, err
	}
	return &sta.Result{
		Netlist:    n,
		Lib:        d.Lib,
		Config:     d.Timing.Config,
		LoadFF:     d.Timing.LoadFF,
		DelayPS:    d.Timing.DelayPS,
		ArrivalPS:  timed.ArrivalPS[:n.NumGates()],
		RequiredPS: timed.RequiredPS[:n.NumGates()],
	}, nil
}

// PrepareDie generates, places and times one benchmark die.
//
// The clock period is set the way a designer would: tight against the
// critical path of the die *including* the unavoidable test hardware (a
// dedicated wrapper cell at every TSV — the paper's pre-reuse baseline),
// plus a 3% margin. Reuse decisions then live or die by that margin:
// attaching a test mux over a long wire to a distant flip-flop eats more
// than the margin and shows up as a timing violation in Table III.
func PrepareDie(p netgen.Profile, seed int64) (*Die, error) {
	return PrepareDieOpts(p, seed, PrepareOptions{})
}

// PrepareOptions trims optional die artefacts for callers that know which
// downstream stages they will run.
type PrepareOptions struct {
	// SkipFaultLists leaves Die.StuckAt and Die.Transition nil. The fault
	// universes are only consumed by the ATPG evaluators; a minimize-only
	// sweep (cmd/tables -batch) or a TSV-repair replan never reads them,
	// and enumerating ~100k collapsed faults per large die costs real
	// time and heap.
	SkipFaultLists bool
}

// PrepareDieOpts is PrepareDie with explicit preparation options.
func PrepareDieOpts(p netgen.Profile, seed int64, po PrepareOptions) (*Die, error) {
	n, err := netgen.Generate(p, seed)
	if err != nil {
		return nil, err
	}
	d, err := PrepareNetlistOpts(n, seed, po)
	if err != nil {
		return nil, err
	}
	d.Profile = p
	return d, nil
}

// PrepareNetlist places and times an existing die (for example one parsed
// from a .bench file) the same way PrepareDie does for generated ones. The
// returned Die carries a synthetic profile derived from the netlist.
func PrepareNetlist(n *netlist.Netlist, seed int64) (*Die, error) {
	return PrepareNetlistOpts(n, seed, PrepareOptions{})
}

// PrepareNetlistOpts is PrepareNetlist with explicit preparation options.
func PrepareNetlistOpts(n *netlist.Netlist, seed int64, po PrepareOptions) (*Die, error) {
	lib := cells.Default45nm()
	pl, err := place.Place(n, place.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	// Post-placement buffering, as physical synthesis would do: long
	// functional nets get repeaters so wire delay is linear and no
	// driver carries more than a segment of wire. DFT wiring added later
	// is buffered only when the planning method asked for it.
	if err := place.InsertRepeaters(n, pl, lib); err != nil {
		return nil, err
	}
	// Critical path with the full-wrap DFT overhead in place.
	fw := scan.FullWrap(n)
	fn, fpl, err := scan.ApplyFunctionalMode(n, pl, lib, fw)
	if err != nil {
		return nil, err
	}
	tie := functionalCase(fn)
	probe, err := sta.Analyze(fn, lib, sta.Config{ClockPS: 1e9, Placement: fpl, TieLow: tie})
	if err != nil {
		return nil, err
	}
	const setupPS = 30
	cp := probe.CriticalPathPS()
	margin := 0.05 * cp
	clock := cp + setupPS + margin

	base, err := sta.Analyze(n, lib, sta.Config{ClockPS: clock, Placement: pl})
	if err != nil {
		return nil, err
	}
	// The slacks the WCM solvers consume must reflect the die as it will
	// ship: with a wrapper mux at every TSV. The bare-die analysis
	// overstates slack by exactly that overhead — a path through three
	// TSV muxes looks ~120 ps looser than it really is, and budgets
	// derived from it produce the very violations the paper's accurate
	// model exists to avoid. Re-analyze the full-wrap view at the real
	// clock and project arrivals/required times back onto the original
	// signals (the clone preserves their IDs); loads stay bare-die (the
	// node filter wants the TSV's real downstream load).
	fwTimed, err := sta.Analyze(fn, lib, sta.Config{ClockPS: clock, Placement: fpl, TieLow: tie})
	if err != nil {
		return nil, err
	}
	timing := &sta.Result{
		Netlist:    n,
		Lib:        lib,
		Config:     base.Config,
		LoadFF:     base.LoadFF,
		DelayPS:    base.DelayPS,
		ArrivalPS:  fwTimed.ArrivalPS[:n.NumGates()],
		RequiredPS: fwTimed.RequiredPS[:n.NumGates()],
	}
	st := netlist.CollectStats(n)
	d := &Die{
		Profile: netgen.Profile{
			Circuit: n.Name, ScanFFs: st.ScanFFs, Gates: st.LogicGates,
			InboundTSVs: st.InboundTSVs, OutboundTSVs: st.OutboundTSVs,
			PIs: st.PIs, POs: st.POs,
		},
		Netlist:   n,
		Lib:       lib,
		Placement: pl,
		ClockPS:   clock,
		MarginPS:  margin,
		Timing:    timing,
	}
	if !po.SkipFaultLists {
		d.StuckAt = faults.CollapsedList(n)
		d.Transition = faults.TransitionList(n)
	}
	return d, nil
}

// PrepareSuite prepares dies for all given profiles, in parallel (each die
// is independent). A failed die aborts the remaining queued preparations.
func PrepareSuite(profiles []netgen.Profile, seed int64) ([]*Die, error) {
	dies := make([]*Die, len(profiles))
	err := par.ForEachIndex(context.Background(), len(profiles), func(ctx context.Context, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		d, err := PrepareDie(profiles[i], seed)
		if err != nil {
			return fmt.Errorf("experiments: preparing %s: %w", profiles[i].Name(), err)
		}
		dies[i] = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dies, nil
}

// Scenario is one timing regime of the paper's §V.A.
type Scenario struct {
	// Name labels the scenario ("area-optimized", "performance-optimized").
	Name string
	// Tight reports whether timing thresholds are derived from the die
	// margin (performance-optimized) or disabled (area-optimized).
	Tight bool
}

// Scenarios returns the paper's two timing regimes.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "area-optimized", Tight: false},
		{Name: "performance-optimized", Tight: true},
	}
}

// AgrawalOptions builds the baseline's configuration for a die under a
// scenario: inbound-first, capacitance-only, no overlapped cones. Under
// the tight scenario the capacitance threshold is derived from the die's
// timing margin — but, being blind to wire, the method will happily pick
// distant flip-flops whose wire load blows that margin.
func AgrawalOptions(d *Die, sc Scenario) wcm.Options {
	opts := wcm.Options{
		CapThFF:      libraryCapThFF,
		SlackThPS:    negInf(),
		DistThUM:     posInf(),
		AllowOverlap: false,
		Order:        wcm.OrderInboundFirst,
		Timing:       wcm.TimingCapOnly,
	}
	if sc.Tight {
		// "Agrawal's method tries to use more hardware resources to
		// meet the rigid timing requirements": it tightens the only
		// knob its model has — the capacitance threshold — but stays
		// blind to wire.
		opts.CapThFF = 0.75 * libraryCapThFF
	}
	return opts
}

// libraryCapThFF is cap_th as the paper defines it: a drive bound from the
// cell library. At ~26 fF per member (TSV pillar plus mux pin), 150 fF
// yields the five-to-six-TSV cliques the paper's results imply.
const libraryCapThFF = 150

// OurOptions builds the paper's configuration: larger-set-first, wire-aware
// timing, overlapped cones under cov_th = 0.5% / p_th = 10. Under the
// tight scenario cap/slack/distance thresholds all derive from the margin.
func OurOptions(d *Die, sc Scenario) wcm.Options {
	opts := wcm.Options{
		CapThFF:        libraryCapThFF,
		SlackThPS:      negInf(),
		DistThUM:       posInf(),
		AllowOverlap:   true,
		CovThFrac:      0.005,
		PatThCount:     10,
		Order:          wcm.OrderLargerFirst,
		Timing:         wcm.TimingCapWire,
		SlackSpendFrac: posInf(), // area-optimized: no timing policing
	}
	if sc.Tight {
		opts.SlackSpendFrac = 0.20
		// cap_th stays the library drivability bound (the paper sources
		// it "from the cell library"); the wire-aware model's per-FF
		// eligibility and d_th do the actual timing policing.
		opts.CapThFF = libraryCapThFF
		// Observation hardware (fold XOR + test mux) may spend a path's
		// slack only down to half the die margin, reserving the rest for
		// control-side load on the same path.
		opts.SlackThPS = 0.5 * d.MarginPS
		opts.DistThUM = tightDistUM(d)
	}
	return opts
}

// tightDistUM bounds sharing distance so the wire capacitance alone cannot
// consume the margin.
func tightDistUM(d *Die) float64 {
	r := d.Lib.Of(netlist.GateDFF).DriveResKOhm
	return d.MarginPS / (r * d.Lib.WireCapPerUM)
}

func negInf() float64 { return math.Inf(-1) }
func posInf() float64 { return math.Inf(1) }

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
	"sync"

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

	// timer is the die's functional-mode timer (functionalTimer),
	// guarded by timerMu.
	timerMu sync.Mutex
	timer   *scan.FunctionalTimer
}

// functionalTimer returns the die's functional-mode timer, shared by
// every caller. It is built on first use, since a Die may be assembled as
// a literal, and built again when the die changed since: another netlist,
// placement or library, or a netlist edited in place (TSV repair patches
// its die's). Concurrent first callers wait for one build.
func (d *Die) functionalTimer() *scan.FunctionalTimer {
	d.timerMu.Lock()
	defer d.timerMu.Unlock()
	if d.timer == nil || !d.timer.Current(d.Netlist, d.Placement, d.Lib) {
		d.timer = scan.NewFunctionalTimer(d.Netlist, d.Placement, d.Lib)
	}
	return d.timer
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

// projectPartial times the die with the partial plan's hardware plus
// full-wrap cells on uncovered TSVs, and projects arrivals/required times
// back onto the original signals (as PrepareNetlist does for the full-wrap
// reference).
func (d *Die) projectPartial(partial *scan.Assignment) (*sta.Result, error) {
	n := d.Netlist
	timed, err := d.functionalTimer().Time(withFullWrap(n, partial), d.ClockPS)
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

// withFullWrap completes a partial plan with a dedicated wrapper cell on
// every TSV it leaves uncovered, the reference convention the clock is
// derived from.
func withFullWrap(n *netlist.Netlist, partial *scan.Assignment) *scan.Assignment {
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
	return combined
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
	n, err := netgen.Generate(p, seed)
	if err != nil {
		return nil, err
	}
	d, err := PrepareNetlist(n, seed)
	if err != nil {
		return nil, err
	}
	d.Profile = p
	return d, nil
}

// PrepareNetlist places and times an existing die (for example one parsed
// from a .bench file, or one carrying spare TSV sites) and enumerates its
// fault universes. Every preparation path ends here. The returned Die
// carries a synthetic profile derived from the netlist.
func PrepareNetlist(n *netlist.Netlist, seed int64) (*Die, error) {
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
	// Critical path with the full-wrap DFT overhead in place. Arrivals do
	// not depend on the clock, so the probe's one arrival pass also
	// serves the analysis at the real clock below. The probe's timer
	// becomes the die's.
	timer := scan.NewFunctionalTimer(n, pl, lib)
	probe, err := timer.Time(scan.FullWrap(n), 1e9)
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
	// model exists to avoid. Re-time the full-wrap view at the real clock
	// and project arrivals/required times back onto the original signals
	// (the view keeps their IDs); loads stay bare-die (the node filter
	// wants the TSV's real downstream load).
	fwTimed, err := probe.AtClock(clock)
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
		Netlist:    n,
		Lib:        lib,
		Placement:  pl,
		ClockPS:    clock,
		MarginPS:   margin,
		Timing:     timing,
		StuckAt:    faults.CollapsedList(n),
		Transition: faults.TransitionList(n),
		timer:      timer,
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

// AgrawalOptions builds the configuration of the Agrawal TCAD'15 baseline
// for a die: inbound-first, capacitance-only (no distance threshold), no
// overlapped cones. tight selects the paper's performance-optimized
// scenario (§V.A), which tightens the capacitance threshold — but, being
// blind to wire, the method will happily pick distant flip-flops whose
// wire load blows the die's margin; otherwise it is the area-optimized one.
func AgrawalOptions(d *Die, tight bool) wcm.Options {
	opts := wcm.Options{
		CapThFF:      libraryCapThFF,
		SlackThPS:    negInf(),
		DistThUM:     posInf(),
		AllowOverlap: false,
		Order:        wcm.OrderInboundFirst,
		Timing:       wcm.TimingCapOnly,
	}
	if tight {
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
// tight (performance-optimized) scenario the slack and distance thresholds
// derive from the die's margin; the loose (area-optimized) one polices no
// timing.
func OurOptions(d *Die, tight bool) wcm.Options {
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
	if tight {
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

package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"wcm3d"
	"wcm3d/internal/cells"
	"wcm3d/internal/experiments"
	"wcm3d/internal/faults"
	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
	"wcm3d/internal/place"
	"wcm3d/internal/refine"
	"wcm3d/internal/scan"
	"wcm3d/internal/sta"
	"wcm3d/internal/verify"
	"wcm3d/internal/wcm"
)

// dieOut is what one die's flow produces; testdata/expected.json pins it.
type dieOut struct {
	ClockPS float64 `json:"clock_ps"`
	Cells   int     `json:"cells"`
	Reused  int     `json:"reused"`
	Edges   int     `json:"edges"`
}

// The untraced pass calls the public wcm3d entry points. The traced pass
// calls the internal steps behind them, with a span around each: prepare
// is rebuilt step by step from experiments.PrepareNetlistOpts, and the
// solver, verifier and portfolio get an Input whose RefreshTiming is
// wrapped. Both passes must produce identical plans and clocks.

// prepare builds a die the way wcm3d.PrepareDie does, fault lists included.
func prepare(p wcm3d.Profile, seed int64, tr *tracer, op string, root int) (*wcm3d.Die, error) {
	if tr == nil {
		return wcm3d.PrepareDie(p, seed)
	}
	timed := func(name string, f func() error) error {
		sp := tr.start(name, op, root)
		defer tr.end(sp)
		return f()
	}
	var n *netlist.Netlist
	if err := timed("netgen.generate", func() (err error) { n, err = netgen.Generate(p, seed); return }); err != nil {
		return nil, err
	}
	lib := cells.Default45nm()
	var pl *place.Placement
	if err := timed("place.place", func() (err error) { pl, err = place.Place(n, place.Options{Seed: seed}); return }); err != nil {
		return nil, err
	}
	if err := timed("place.repeaters", func() error { return place.InsertRepeaters(n, pl, lib) }); err != nil {
		return nil, err
	}
	var fn *netlist.Netlist
	var fpl *place.Placement
	if err := timed("scan.functional", func() (err error) {
		fn, fpl, err = scan.ApplyFunctionalMode(n, pl, lib, scan.FullWrap(n))
		return
	}); err != nil {
		return nil, err
	}
	var tie []netlist.SignalID
	if id, ok := fn.SignalByName(scan.TestEnableName); ok {
		tie = []netlist.SignalID{id}
	}
	analyze := func(n *netlist.Netlist, cfg sta.Config) (r *sta.Result, err error) {
		err = timed("sta.analyze", func() (err error) { r, err = sta.Analyze(n, lib, cfg); return })
		return
	}
	probe, err := analyze(fn, sta.Config{ClockPS: 1e9, Placement: fpl, TieLow: tie})
	if err != nil {
		return nil, err
	}
	const setupPS = 30
	cp := probe.CriticalPathPS()
	margin := 0.05 * cp
	clock := cp + setupPS + margin
	base, err := analyze(n, sta.Config{ClockPS: clock, Placement: pl})
	if err != nil {
		return nil, err
	}
	fwTimed, err := analyze(fn, sta.Config{ClockPS: clock, Placement: fpl, TieLow: tie})
	if err != nil {
		return nil, err
	}
	d := &experiments.Die{
		Profile:   p,
		Netlist:   n,
		Lib:       lib,
		Placement: pl,
		ClockPS:   clock,
		MarginPS:  margin,
		Timing: &sta.Result{
			Netlist:    n,
			Lib:        lib,
			Config:     base.Config,
			LoadFF:     base.LoadFF,
			DelayPS:    base.DelayPS,
			ArrivalPS:  fwTimed.ArrivalPS[:n.NumGates()],
			RequiredPS: fwTimed.RequiredPS[:n.NumGates()],
		},
	}
	sp := tr.start("faults.lists", op, root)
	d.StuckAt = faults.CollapsedList(n)
	d.Transition = faults.TransitionList(n)
	tr.end(sp)
	tr.count("netlist.gates", float64(n.NumGates()))
	tr.count("faults.count", float64(len(d.StuckAt)+len(d.Transition)))
	return d, nil
}

// tracedInput is d.Input() with RefreshTiming wrapped in a span named after
// the module that called it, parented to the span open around the call.
func tracedInput(d *wcm3d.Die, tr *tracer, op string, parent int) wcm.Input {
	in := d.Input()
	refresh := in.RefreshTiming
	in.RefreshTiming = func(partial *scan.Assignment) (*sta.Result, error) {
		sp := tr.start("refresh."+refreshCaller(), op, parent)
		defer tr.end(sp)
		return refresh(partial)
	}
	return in
}

// refreshCaller names the innermost repository module on the stack: the
// verifier the refine arbiter calls counts as verify, not refine.
func refreshCaller() string {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(3, pcs)])
	for {
		f, more := frames.Next()
		for _, m := range []string{"verify", "refine", "wcm"} {
			if strings.HasPrefix(f.Function, "wcm3d/internal/"+m+".") {
				return m
			}
		}
		if !more {
			return "other"
		}
	}
}

// solve runs the greedy minimizer (ours, tight timing), the independent
// verifier and the functional timing signoff on a prepared die. A verifier
// violation or a signoff violation is an error.
func solve(d *wcm3d.Die, tr *tracer, op string, root int) (*wcm3d.MinimizeResult, error) {
	var res *wcm3d.MinimizeResult
	var vr *wcm3d.VerifyResult
	var err error
	if tr == nil {
		if res, err = wcm3d.Minimize(d, wcm3d.MethodOurs, wcm3d.TightTiming); err != nil {
			return nil, err
		}
		if vr, err = wcm3d.VerifyPlan(d, res, wcm3d.VerifyOptions{}); err != nil {
			return nil, err
		}
	} else {
		sp := tr.start("wcm.run", op, root)
		res, err = wcm.Run(tracedInput(d, tr, op, sp), wcm3d.OurOptions(d, wcm3d.TightTiming))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		for _, ph := range res.Phases {
			tr.count("wcm.nodes", float64(ph.Nodes))
			tr.count("wcm.edges", float64(ph.Edges))
			tr.count("wcm.overlap_edges", float64(ph.OverlapEdges))
			tr.count("wcm.merges", float64(ph.Merges))
		}
		sp = tr.start("verify.plan", op, root)
		th := res.Options
		vr, err = verify.Plan(tracedInput(d, tr, op, sp), res.Assignment, verify.Options{Thresholds: &th})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	if !vr.OK() {
		return nil, fmt.Errorf("verifier rejected the plan: %s", vr.Summary())
	}
	sp := tr.start("signoff", op, root)
	viol, wns, err := wcm3d.CheckTiming(d, res.Assignment)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if viol {
		return nil, fmt.Errorf("tight-timing signoff violated: WNS %.1f ps", wns)
	}
	return res, nil
}

func outOf(d *wcm3d.Die, res *wcm3d.MinimizeResult) dieOut {
	return dieOut{ClockPS: d.ClockPS, Cells: res.AdditionalCells, Reused: res.ReusedFFs, Edges: res.TotalEdges()}
}

// refineDie runs the solver portfolio over a greedy plan.
func refineDie(ctx context.Context, d *wcm3d.Die, greedy *wcm3d.MinimizeResult, ro wcm3d.RefineOptions, tr *tracer, op string, root int) (*wcm3d.RefineResult, error) {
	if tr == nil {
		return wcm3d.Refine(ctx, d, greedy.Options, greedy, ro)
	}
	sp := tr.start("refine.run", op, root)
	rr, err := refine.Run(ctx, tracedInput(d, tr, op, sp), greedy.Options, greedy, ro)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	proposed, admitted := 0, 0
	for _, s := range rr.Strategies {
		tr.count("refine.steps", float64(s.Steps))
		tr.count("refine.steps."+s.Name, float64(s.Steps))
		proposed += s.Proposed
		admitted += s.Admitted
	}
	tr.count("refine.proposed", float64(proposed))
	tr.count("refine.admitted", float64(admitted))
	tr.count("refine.cells_saved", float64(rr.CellsSaved))
	return rr, nil
}

// certifyRefined re-checks a refined plan from scratch: the verifier under
// the greedy run's contract, and the functional timing signoff.
func certifyRefined(d *wcm3d.Die, greedy *wcm3d.MinimizeResult, rr *wcm3d.RefineResult) error {
	if rr.AdditionalCells > greedy.AdditionalCells {
		return fmt.Errorf("refined plan has %d cells, greedy had %d", rr.AdditionalCells, greedy.AdditionalCells)
	}
	plan := &wcm3d.MinimizeResult{Assignment: rr.Assignment, Options: greedy.Options}
	vr, err := wcm3d.VerifyPlan(d, plan, wcm3d.VerifyOptions{})
	if err != nil {
		return err
	}
	if !vr.OK() {
		return fmt.Errorf("verifier rejected the refined plan: %s", vr.Summary())
	}
	viol, wns, err := wcm3d.CheckTiming(d, rr.Assignment)
	if err != nil {
		return err
	}
	if viol {
		return fmt.Errorf("refined plan violates tight timing: WNS %.1f ps", wns)
	}
	return nil
}

package experiments

import (
	"math"
	"strings"
	"testing"

	"wcm3d/internal/netgen"
	"wcm3d/internal/scan"
	"wcm3d/internal/wcm"
)

func prepB12(t *testing.T) []*Die {
	t.Helper()
	dies, err := PrepareSuite(netgen.ITC99Circuit("b12"), 1)
	if err != nil {
		t.Fatal(err)
	}
	return dies
}

func TestPrepareDieInvariants(t *testing.T) {
	d, err := PrepareDie(netgen.ITC99Circuit("b11")[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.ClockPS <= 0 || d.MarginPS <= 0 {
		t.Errorf("clock %v margin %v", d.ClockPS, d.MarginPS)
	}
	if d.Timing.Netlist != d.Netlist {
		t.Error("projected timing must reference the die netlist")
	}
	if len(d.StuckAt) == 0 || len(d.Transition) == 0 {
		t.Error("fault universes must be enumerated")
	}
	// The full-wrap reference must meet the derived clock.
	viol, wns, err := CheckTiming(d, scan.FullWrap(d.Netlist))
	if err != nil {
		t.Fatal(err)
	}
	if viol {
		t.Errorf("full-wrap reference violates its own clock (wns %.1f)", wns)
	}
	// Margin is real: the reference has at most ~margin of headroom.
	if wns > d.MarginPS*1.5 {
		t.Errorf("wns %.1f far exceeds margin %.1f: clock not tight", wns, d.MarginPS)
	}
}

func TestPrepareDieDeterministic(t *testing.T) {
	p := netgen.ITC99Circuit("b11")[1]
	d1, err := PrepareDie(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := PrepareDie(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d1.ClockPS != d2.ClockPS {
		t.Errorf("clock differs: %v vs %v", d1.ClockPS, d2.ClockPS)
	}
	if d1.Netlist.String() != d2.Netlist.String() {
		t.Error("prepared netlists differ")
	}
}

func TestOursNeverViolatesTight(t *testing.T) {
	// The paper's headline property on the two smallest families (the
	// full 24-die check runs in cmd/tables).
	for _, c := range []string{"b11", "b12"} {
		for _, p := range netgen.ITC99Circuit(c) {
			d, err := PrepareDie(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := wcm.Run(d.Input(), OurOptions(d, true))
			if err != nil {
				t.Fatal(err)
			}
			viol, wns, err := CheckTiming(d, res.Assignment)
			if err != nil {
				t.Fatal(err)
			}
			if viol {
				t.Errorf("%s: ours-tight violates (wns %.1f)", p.Name(), wns)
			}
		}
	}
}

func TestTable1RunsAndRenders(t *testing.T) {
	dies := prepB12(t)[:2]
	// Table I runs Agrawal's method; its configuration is the TCAD'15
	// shape in both scenarios: inbound-first, cap-only timing, no distance
	// threshold, and no overlapped cones (so no overlap edges).
	for _, tight := range []bool{false, true} {
		opts := AgrawalOptions(dies[0], tight)
		if opts.Order != wcm.OrderInboundFirst || opts.Timing != wcm.TimingCapOnly ||
			opts.AllowOverlap || !math.IsInf(opts.DistThUM, 1) {
			t.Errorf("tight=%v: Agrawal options %+v, want inbound-first, cap-only, no overlap, no d_th", tight, opts)
		}
		res, err := wcm.Run(dies[0].Input(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Phases[0].Inbound || res.TotalOverlapEdges() != 0 {
			t.Errorf("tight=%v: first phase inbound=%v, %d overlap edges; want inbound first and none",
				tight, res.Phases[0].Inbound, res.TotalOverlapEdges())
		}
	}
	rows, err := Table1(dies, ReducedBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.InFirstCoverage <= 0.5 || r.OutFirstCoverage <= 0.5 {
			t.Errorf("%s: implausible coverage (%v, %v)", r.Die, r.InFirstCoverage, r.OutFirstCoverage)
		}
	}
	var sb strings.Builder
	RenderTable1(&sb, rows)
	if !strings.Contains(sb.String(), "Table I") {
		t.Error("render missing title")
	}
}

func TestTable2MatchesPaperAverages(t *testing.T) {
	rows, err := Table2(netgen.ITC99Profiles(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 24 {
		t.Fatalf("rows = %d, want 24", len(rows))
	}
	var ffs, gates, tsvs float64
	for _, r := range rows {
		ffs += float64(r.Stats.ScanFFs)
		gates += float64(r.Stats.LogicGates)
		tsvs += float64(r.Stats.TSVs())
	}
	// Paper Table II averages: 194.04 / 8522.67 / 1064.54.
	check := func(name string, got, want float64) {
		t.Helper()
		if got < want-0.01 || got > want+0.01 {
			t.Errorf("%s average = %.2f, paper says %.2f", name, got, want)
		}
	}
	check("scan FFs", ffs/24, 194.04)
	check("gates", gates/24, 8522.67)
	check("TSVs", tsvs/24, 1064.54)
}

func TestTable3ShapeOnB12(t *testing.T) {
	rows, err := Table3(prepB12(t))
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(rows)
	if s.OurViolations != 0 {
		t.Errorf("ours must never violate; got %d/%d", s.OurViolations, s.Dies)
	}
	// Ours (loose) must not insert substantially more cells than the
	// baseline.
	if s.OurLooseCells > s.AgrLooseCells*1.15 {
		t.Errorf("ours-loose cells %.2f much worse than agrawal %.2f", s.OurLooseCells, s.AgrLooseCells)
	}
	var sb strings.Builder
	RenderTable3(&sb, rows)
	if !strings.Contains(sb.String(), "Average") {
		t.Error("render missing summary")
	}
}

func TestTable5AndFigure7OverlapShape(t *testing.T) {
	dies := prepB12(t)[2:3] // one die keeps it fast
	rows5, err := Table5(dies, ReducedBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	r := rows5[0]
	if r.OnCells > r.OffCells {
		t.Errorf("allowing overlap must not add cells: %d > %d", r.OnCells, r.OffCells)
	}
	rows7, err := Figure7(dies)
	if err != nil {
		t.Fatal(err)
	}
	if rows7[0].EdgesOn < rows7[0].EdgesOff {
		t.Errorf("overlap must not remove edges: %d < %d", rows7[0].EdgesOn, rows7[0].EdgesOff)
	}
	var sb strings.Builder
	RenderTable5(&sb, rows5)
	RenderFigure7(&sb, rows7)
	if !strings.Contains(sb.String(), "Figure 7") {
		t.Error("render missing title")
	}
}

func TestEvaluateStuckAtSensibleCoverage(t *testing.T) {
	d, err := PrepareDie(netgen.ITC99Circuit("b11")[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := EvaluateStuckAt(d, scan.FullWrap(d.Netlist), ReducedBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if full.Coverage < 0.85 {
		t.Errorf("full-wrap test coverage %.3f implausibly low", full.Coverage)
	}
	if full.Patterns <= 0 {
		t.Error("no patterns generated")
	}
	// An empty plan (no wrappers at all) must grade strictly worse:
	// inbound TSVs stay X, outbound cones stay unobservable.
	bare, err := EvaluateStuckAt(d, &scan.Assignment{}, ReducedBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if bare.RawCoverage >= full.RawCoverage {
		t.Errorf("unwrapped die coverage %.3f must trail full wrap %.3f",
			bare.RawCoverage, full.RawCoverage)
	}
}

func TestCheckTimingDetectsSabotage(t *testing.T) {
	// A plan that reuses the flip-flop with the least D-pin slack for a
	// far-away observation should eat the margin.
	d, err := PrepareDie(netgen.ITC99Circuit("b12")[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the timing checker is exercised through the full pipeline
	// in Table3 tests; here confirm the API contract on the trivial plan.
	viol, wns, err := CheckTiming(d, scan.FullWrap(d.Netlist))
	if err != nil {
		t.Fatal(err)
	}
	if viol || wns < 0 {
		t.Errorf("full wrap must meet timing: viol=%v wns=%.1f", viol, wns)
	}
}

func TestFlowDeterminism(t *testing.T) {
	// Two complete runs of the flow (prepare → minimize → evaluate) must
	// agree bit-for-bit — the tables in results/ depend on it.
	run := func() (int, int, Testability) {
		d, err := PrepareDie(netgen.ITC99Circuit("b11")[1], 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := wcm.Run(d.Input(), OurOptions(d, true))
		if err != nil {
			t.Fatal(err)
		}
		tb, err := EvaluateStuckAt(d, res.Assignment, ReducedBudget(1))
		if err != nil {
			t.Fatal(err)
		}
		return res.ReusedFFs, res.AdditionalCells, tb
	}
	r1, c1, t1 := run()
	r2, c2, t2 := run()
	if r1 != r2 || c1 != c2 || t1 != t2 {
		t.Errorf("flow not deterministic: (%d,%d,%+v) vs (%d,%d,%+v)", r1, c1, t1, r2, c2, t2)
	}
}

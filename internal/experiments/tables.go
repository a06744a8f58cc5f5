package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
	"wcm3d/internal/par"
	"wcm3d/internal/wcm"
)

// ---------------------------------------------------------------- Table I

// Table1Row compares TSV-set processing orders for one die under Agrawal's
// method (area-optimized), the experiment that motivates the paper's
// larger-set-first rule.
type Table1Row struct {
	Die                string
	Inbound, Outbound  int
	InFirstCoverage    float64
	InFirstCells       int
	OutFirstCoverage   float64
	OutFirstCells      int
	LargerFirstMatches bool // larger-first picked the better-or-equal order
}

// Table1 runs the ordering comparison.
func Table1(dies []*Die, budget ATPGBudget) ([]Table1Row, error) {
	var rows []Table1Row
	for _, d := range dies {
		row := Table1Row{
			Die:      d.Profile.Name(),
			Inbound:  d.Profile.InboundTSVs,
			Outbound: d.Profile.OutboundTSVs,
		}
		for _, order := range []wcm.OrderPolicy{wcm.OrderInboundFirst, wcm.OrderOutboundFirst} {
			opts := AgrawalOptions(d, false)
			opts.Order = order
			res, err := wcm.Run(d.Input(), opts)
			if err != nil {
				return nil, fmt.Errorf("table1 %s %s: %w", d.Profile.Name(), order, err)
			}
			tb, err := EvaluateStuckAt(d, res.Assignment, budget)
			if err != nil {
				return nil, err
			}
			if order == wcm.OrderInboundFirst {
				row.InFirstCoverage = tb.Coverage
				row.InFirstCells = res.AdditionalCells
			} else {
				row.OutFirstCoverage = tb.Coverage
				row.OutFirstCells = res.AdditionalCells
			}
		}
		largerIsOutbound := d.Profile.OutboundTSVs >= d.Profile.InboundTSVs
		if largerIsOutbound {
			row.LargerFirstMatches = row.OutFirstCells <= row.InFirstCells
		} else {
			row.LargerFirstMatches = row.InFirstCells <= row.OutFirstCells
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable1 prints the rows in the paper's layout.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table I — fault coverage vs TSV-set processing order (Agrawal's method)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "die\t#in\t#out\tin-first cov\tin-first cells\tout-first cov\tout-first cells")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f%%\t%d\t%.2f%%\t%d\n",
			r.Die, r.Inbound, r.Outbound,
			100*r.InFirstCoverage, r.InFirstCells,
			100*r.OutFirstCoverage, r.OutFirstCells)
	}
	tw.Flush()
}

// --------------------------------------------------------------- Table II

// Table2Row is one die's characteristics.
type Table2Row struct {
	Die   string
	Stats netlist.Stats
}

// Table2 collects benchmark characteristics for the given profiles.
func Table2(profiles []netgen.Profile, seed int64) ([]Table2Row, error) {
	var rows []Table2Row
	for _, p := range profiles {
		n, err := netgen.Generate(p, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{Die: p.Name(), Stats: netlist.CollectStats(n)})
	}
	return rows, nil
}

// RenderTable2 prints the rows in the paper's layout, with averages.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table II — characteristics of the ITC'99 benchmark dies")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "die\t#scan FFs\t#gates\t#TSVs\t#inbound\t#outbound")
	var sFF, sG, sT, sI, sO float64
	for _, r := range rows {
		st := r.Stats
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\n",
			r.Die, st.ScanFFs, st.LogicGates, st.TSVs(), st.InboundTSVs, st.OutboundTSVs)
		sFF += float64(st.ScanFFs)
		sG += float64(st.LogicGates)
		sT += float64(st.TSVs())
		sI += float64(st.InboundTSVs)
		sO += float64(st.OutboundTSVs)
	}
	k := float64(len(rows))
	fmt.Fprintf(tw, "Average\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n", sFF/k, sG/k, sT/k, sI/k, sO/k)
	tw.Flush()
}

// -------------------------------------------------------------- Table III

// Table3Row compares reuse and timing for one die across the four method ×
// scenario combinations.
type Table3Row struct {
	Die string
	// Agrawal / Ours under the area-optimized (loose) scenario.
	AgrLooseReused, AgrLooseCells int
	OurLooseReused, OurLooseCells int
	// Agrawal / Ours under the performance-optimized (tight) scenario.
	AgrTightReused, AgrTightCells int
	AgrTightViolation             bool
	OurTightReused, OurTightCells int
	OurTightViolation             bool
}

// Table3 runs the four configurations on every die, in parallel across
// dies.
func Table3(dies []*Die) ([]Table3Row, error) {
	rows := make([]Table3Row, len(dies))
	err := par.ForEachIndex(context.Background(), len(dies), func(_ context.Context, di int) error {
		d := dies[di]
		row := Table3Row{Die: d.Profile.Name()}
		type cfg struct {
			opts      wcm.Options
			reused    *int
			cells     *int
			violation *bool
		}
		cfgs := []cfg{
			{AgrawalOptions(d, false), &row.AgrLooseReused, &row.AgrLooseCells, nil},
			{OurOptions(d, false), &row.OurLooseReused, &row.OurLooseCells, nil},
			{AgrawalOptions(d, true), &row.AgrTightReused, &row.AgrTightCells, &row.AgrTightViolation},
			{OurOptions(d, true), &row.OurTightReused, &row.OurTightCells, &row.OurTightViolation},
		}
		for _, c := range cfgs {
			res, err := wcm.Run(d.Input(), c.opts)
			if err != nil {
				return fmt.Errorf("table3 %s: %w", d.Profile.Name(), err)
			}
			*c.reused = res.ReusedFFs
			*c.cells = res.AdditionalCells
			if c.violation != nil {
				v, _, err := CheckTiming(d, res.Assignment)
				if err != nil {
					return err
				}
				*c.violation = v
			}
		}
		rows[di] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Table3Summary aggregates a Table III run the way the paper's bottom rows
// do: averages, percentages against the Agrawal/area baseline, and
// violation counts.
type Table3Summary struct {
	AgrLooseReused, AgrLooseCells float64
	OurLooseReused, OurLooseCells float64
	AgrTightReused, AgrTightCells float64
	OurTightReused, OurTightCells float64
	AgrViolations, OurViolations  int
	Dies                          int
}

// Summarize computes the aggregate.
func Summarize(rows []Table3Row) Table3Summary {
	var s Table3Summary
	s.Dies = len(rows)
	for _, r := range rows {
		s.AgrLooseReused += float64(r.AgrLooseReused)
		s.AgrLooseCells += float64(r.AgrLooseCells)
		s.OurLooseReused += float64(r.OurLooseReused)
		s.OurLooseCells += float64(r.OurLooseCells)
		s.AgrTightReused += float64(r.AgrTightReused)
		s.AgrTightCells += float64(r.AgrTightCells)
		s.OurTightReused += float64(r.OurTightReused)
		s.OurTightCells += float64(r.OurTightCells)
		if r.AgrTightViolation {
			s.AgrViolations++
		}
		if r.OurTightViolation {
			s.OurViolations++
		}
	}
	k := float64(len(rows))
	if k > 0 {
		s.AgrLooseReused /= k
		s.AgrLooseCells /= k
		s.OurLooseReused /= k
		s.OurLooseCells /= k
		s.AgrTightReused /= k
		s.AgrTightCells /= k
		s.OurTightReused /= k
		s.OurTightCells /= k
	}
	return s
}

// RenderTable3 prints rows plus the summary block.
func RenderTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table III — reused scan FFs and additional wrapper cells (area vs performance)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "die\tAgr reused\tAgr cells\tOur reused\tOur cells\tAgr reused\tAgr cells\tviol\tOur reused\tOur cells\tviol")
	fmt.Fprintln(tw, "\t(no timing)\t\t(no timing)\t\t(tight)\t\t\t(tight)\t\t")
	mark := func(v bool) string {
		if v {
			return "X"
		}
		return ""
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%d\t%d\t%s\n",
			r.Die,
			r.AgrLooseReused, r.AgrLooseCells,
			r.OurLooseReused, r.OurLooseCells,
			r.AgrTightReused, r.AgrTightCells, mark(r.AgrTightViolation),
			r.OurTightReused, r.OurTightCells, mark(r.OurTightViolation))
	}
	s := Summarize(rows)
	fmt.Fprintf(tw, "Average\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%d/%d\t%.2f\t%.2f\t%d/%d\n",
		s.AgrLooseReused, s.AgrLooseCells,
		s.OurLooseReused, s.OurLooseCells,
		s.AgrTightReused, s.AgrTightCells, s.AgrViolations, s.Dies,
		s.OurTightReused, s.OurTightCells, s.OurViolations, s.Dies)
	pct := func(v, base float64) string {
		if base == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f%%", 100*v/base)
	}
	fmt.Fprintf(tw, "(%%)\t%s\t%s\t%s\t%s\t%s\t%s\t\t%s\t%s\t\n",
		pct(s.AgrLooseReused, s.AgrLooseReused), pct(s.AgrLooseCells, s.AgrLooseCells),
		pct(s.OurLooseReused, s.AgrLooseReused), pct(s.OurLooseCells, s.AgrLooseCells),
		pct(s.AgrTightReused, s.AgrLooseReused), pct(s.AgrTightCells, s.AgrLooseCells),
		pct(s.OurTightReused, s.AgrLooseReused), pct(s.OurTightCells, s.AgrLooseCells))
	tw.Flush()
}

// -------------------------------------------------------------- Table IV

// Table4Row holds testability of one die under the performance-optimized
// scenario, Agrawal vs ours, stuck-at and transition models.
type Table4Row struct {
	Die                     string
	AgrStuck, AgrTransition Testability
	OurStuck, OurTransition Testability
}

// Table4 evaluates coverage and pattern counts.
func Table4(dies []*Die, budget ATPGBudget) ([]Table4Row, error) {
	rows := make([]Table4Row, len(dies))
	err := par.ForEachIndex(context.Background(), len(dies), func(_ context.Context, di int) error {
		d := dies[di]
		row := Table4Row{Die: d.Profile.Name()}
		agr, err := wcm.Run(d.Input(), AgrawalOptions(d, true))
		if err != nil {
			return fmt.Errorf("table4 %s agrawal: %w", d.Profile.Name(), err)
		}
		our, err := wcm.Run(d.Input(), OurOptions(d, true))
		if err != nil {
			return fmt.Errorf("table4 %s ours: %w", d.Profile.Name(), err)
		}
		if row.AgrStuck, err = EvaluateStuckAt(d, agr.Assignment, budget); err != nil {
			return err
		}
		if row.AgrTransition, err = EvaluateTransition(d, agr.Assignment, budget); err != nil {
			return err
		}
		if row.OurStuck, err = EvaluateStuckAt(d, our.Assignment, budget); err != nil {
			return err
		}
		if row.OurTransition, err = EvaluateTransition(d, our.Assignment, budget); err != nil {
			return err
		}
		rows[di] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable4 prints the rows with averages.
func RenderTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table IV — fault coverage and pattern count, stuck-at and transition (tight timing)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "die\tAgr stuck-at\tAgr transition\tOur stuck-at\tOur transition")
	var aC, aP, atC, atP, oC, oP, otC, otP float64
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n",
			r.Die, r.AgrStuck, r.AgrTransition, r.OurStuck, r.OurTransition)
		aC += r.AgrStuck.Coverage
		aP += float64(r.AgrStuck.Patterns)
		atC += r.AgrTransition.Coverage
		atP += float64(r.AgrTransition.Patterns)
		oC += r.OurStuck.Coverage
		oP += float64(r.OurStuck.Patterns)
		otC += r.OurTransition.Coverage
		otP += float64(r.OurTransition.Patterns)
	}
	k := float64(len(rows))
	fmt.Fprintf(tw, "Average\t(%.2f%%, %.2f)\t(%.2f%%, %.2f)\t(%.2f%%, %.2f)\t(%.2f%%, %.2f)\n",
		100*aC/k, aP/k, 100*atC/k, atP/k, 100*oC/k, oP/k, 100*otC/k, otP/k)
	tw.Flush()
}

// --------------------------------------------------------------- Table V

// Table5Row compares overlapped-cone sharing on/off for one die under the
// performance-optimized scenario.
type Table5Row struct {
	Die                     string
	OffReused, OffCells     int
	OffStuck, OffTransition Testability
	OnReused, OnCells       int
	OnStuck, OnTransition   Testability
}

// Table5 runs ours with AllowOverlap off and on.
func Table5(dies []*Die, budget ATPGBudget) ([]Table5Row, error) {
	rows := make([]Table5Row, len(dies))
	err := par.ForEachIndex(context.Background(), len(dies), func(_ context.Context, di int) error {
		d := dies[di]
		row := Table5Row{Die: d.Profile.Name()}
		for _, allow := range []bool{false, true} {
			opts := OurOptions(d, true)
			opts.AllowOverlap = allow
			res, err := wcm.Run(d.Input(), opts)
			if err != nil {
				return fmt.Errorf("table5 %s overlap=%v: %w", d.Profile.Name(), allow, err)
			}
			sa, err := EvaluateStuckAt(d, res.Assignment, budget)
			if err != nil {
				return err
			}
			tr, err := EvaluateTransition(d, res.Assignment, budget)
			if err != nil {
				return err
			}
			if allow {
				row.OnReused, row.OnCells = res.ReusedFFs, res.AdditionalCells
				row.OnStuck, row.OnTransition = sa, tr
			} else {
				row.OffReused, row.OffCells = res.ReusedFFs, res.AdditionalCells
				row.OffStuck, row.OffTransition = sa, tr
			}
		}
		rows[di] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable5 prints the rows with averages and percentages.
func RenderTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintln(w, "Table V — overlapped fan-in/fan-out cone sharing off vs on (tight timing)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "die\toff reused\toff cells\toff stuck-at\toff transition\ton reused\ton cells\ton stuck-at\ton transition")
	var offR, offC, onR, onC float64
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%d\t%d\t%s\t%s\n",
			r.Die, r.OffReused, r.OffCells, r.OffStuck, r.OffTransition,
			r.OnReused, r.OnCells, r.OnStuck, r.OnTransition)
		offR += float64(r.OffReused)
		offC += float64(r.OffCells)
		onR += float64(r.OnReused)
		onC += float64(r.OnCells)
	}
	k := float64(len(rows))
	fmt.Fprintf(tw, "Average\t%.2f\t%.2f\t\t\t%.2f\t%.2f\t\t\n", offR/k, offC/k, onR/k, onC/k)
	if offR > 0 && offC > 0 {
		fmt.Fprintf(tw, "(%%)\t100%%\t100%%\t\t\t%.2f%%\t%.2f%%\t\t\n", 100*onR/offR, 100*onC/offC)
	}
	tw.Flush()
}

// -------------------------------------------------------------- Figure 7

// Figure7Row is one die's graph-size comparison.
type Figure7Row struct {
	Die       string
	EdgesOff  int
	EdgesOn   int
	PctGrowth float64
}

// Figure7 measures solution-space expansion from overlapped-cone edges.
func Figure7(dies []*Die) ([]Figure7Row, error) {
	rows := make([]Figure7Row, len(dies))
	err := par.ForEachIndex(context.Background(), len(dies), func(_ context.Context, di int) error {
		d := dies[di]
		var edges [2]int
		for i, allow := range []bool{false, true} {
			opts := OurOptions(d, true)
			opts.AllowOverlap = allow
			res, err := wcm.Run(d.Input(), opts)
			if err != nil {
				return fmt.Errorf("figure7 %s overlap=%v: %w", d.Profile.Name(), allow, err)
			}
			edges[i] = res.TotalEdges()
		}
		growth := 0.0
		if edges[0] > 0 {
			growth = 100 * float64(edges[1]-edges[0]) / float64(edges[0])
		}
		rows[di] = Figure7Row{
			Die: d.Profile.Name(), EdgesOff: edges[0], EdgesOn: edges[1], PctGrowth: growth,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFigure7 prints the series the paper plots.
func RenderFigure7(w io.Writer, rows []Figure7Row) {
	fmt.Fprintln(w, "Figure 7 — sharing-graph edges without vs with overlapped-cone edges")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "die\tedges (no overlap)\tedges (overlap)\tgrowth")
	sum := 0.0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%+.2f%%\n", r.Die, r.EdgesOff, r.EdgesOn, r.PctGrowth)
		sum += r.PctGrowth
	}
	fmt.Fprintf(tw, "Average\t\t\t%+.2f%%\n", sum/float64(len(rows)))
	tw.Flush()
}

package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"wcm3d/internal/refine"
	"wcm3d/internal/wcm"
)

// RefineGapRow compares the greedy heuristic against the anytime solver
// portfolio (internal/refine) for one die under the performance-optimized
// scenario: the cells each plan inserts, the cells the portfolio saved,
// the capacity lower bound on refine's model (a refined plan at the bound
// is optimal on that model), the solver that found the winning plan, and
// the total search steps all solvers executed inside the budget — the
// column that shows whether a zero-saved row searched hard and found
// nothing or barely searched at all.
type RefineGapRow struct {
	Die          string
	GreedyCells  int
	RefinedCells int
	Saved        int
	LowerBound   int
	ReusedFFs    int
	Strategy     string
	Steps        int
}

// RefineGap runs the paper's method on every die and then runs the solver
// portfolio over each greedy plan for the given wall budget per die. Dies
// run sequentially — a per-die budget only means something when the
// solvers are not competing with twenty-three siblings for cores. The
// refined count is never worse than greedy: every candidate had to pass
// the independent verifier, and a fruitless search hands greedy back
// unchanged.
func RefineGap(dies []*Die, budget time.Duration, seed int64) ([]RefineGapRow, error) {
	rows := make([]RefineGapRow, 0, len(dies))
	for _, d := range dies {
		opts := OurOptions(d, true)
		res, err := wcm.Run(d.Input(), opts)
		if err != nil {
			return nil, fmt.Errorf("refine gap %s: %w", d.Profile.Name(), err)
		}
		rr, err := refine.Run(context.Background(), d.Input(), opts, res,
			refine.Options{Budget: budget, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("refine gap %s: %w", d.Profile.Name(), err)
		}
		steps := 0
		for _, so := range rr.Strategies {
			steps += so.Steps
		}
		rows = append(rows, RefineGapRow{
			Die:          d.Profile.Name(),
			GreedyCells:  rr.GreedyCells,
			RefinedCells: rr.AdditionalCells,
			Saved:        rr.CellsSaved,
			LowerBound:   rr.LowerBound,
			ReusedFFs:    rr.ReusedFFs,
			Strategy:     rr.Strategy,
			Steps:        steps,
		})
	}
	return rows, nil
}

// RenderRefineGap prints the rows with totals. The bound holds on refine's
// model, which prices phase two from greedy's phase-one hardware.
func RenderRefineGap(w io.Writer, rows []RefineGapRow) {
	fmt.Fprintln(w, "Refinement gap — greedy heuristic vs anytime solver portfolio (tight timing; bound on refine's model)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "die\tgreedy cells\trefined cells\tsaved\tbound\tgap\treused FFs\twon by\tsteps")
	var g, r, s, lb, st int
	for _, row := range rows {
		won := row.Strategy
		if won == "" {
			won = "-"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%d\n",
			row.Die, row.GreedyCells, row.RefinedCells, row.Saved, row.LowerBound,
			row.RefinedCells-row.LowerBound, row.ReusedFFs, won, row.Steps)
		g += row.GreedyCells
		r += row.RefinedCells
		s += row.Saved
		lb += row.LowerBound
		st += row.Steps
	}
	fmt.Fprintf(tw, "Total\t%d\t%d\t%d\t%d\t%d\t\t\t%d\n", g, r, s, lb, r-lb, st)
	if g > 0 {
		fmt.Fprintf(tw, "(%%)\t100%%\t%.2f%%\t%.2f%%\t%.2f%%\t%.2f%%\t\t\t\n",
			100*float64(r)/float64(g), 100*float64(s)/float64(g),
			100*float64(lb)/float64(g), 100*float64(r-lb)/float64(g))
	}
	tw.Flush()
}

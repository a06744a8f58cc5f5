package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"wcm3d/internal/par"
	"wcm3d/internal/tam"
	"wcm3d/internal/wcm"
)

// TAMRow is one stack's test time at one total TAM width: the experiment
// the paper stops short of — given wrapped dies, what does tester
// bandwidth buy?
type TAMRow struct {
	// Circuit is the benchmark family whose four dies form the stack.
	Circuit string
	// Width is the total TAM wire budget.
	Width int
	// MakespanCycles is the packed schedule's total test time.
	MakespanCycles int
	// SerialCycles is the one-die-at-a-time reference at the same budget.
	SerialCycles int
	// Utilization is the packed plane's busy fraction.
	Utilization float64
}

// Speedup is serial test time over packed makespan.
func (r TAMRow) Speedup() float64 {
	if r.MakespanCycles == 0 {
		return 1
	}
	return float64(r.SerialCycles) / float64(r.MakespanCycles)
}

// TAMWidths runs wrapper/TAM co-optimization for every circuit family in
// dies at every total width: each die is wrapped with the paper's method
// under tight timing, graded with stuck-at ATPG for its pattern count,
// enumerated into its Pareto wrapper designs, and packed per family. The
// expensive per-die stage (minimize + ATPG) runs once per die, in
// parallel, and is shared across widths.
func TAMWidths(dies []*Die, widths []int, budget ATPGBudget) ([]TAMRow, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("experiments: no TAM widths given")
	}
	maxWidth := 0
	for _, w := range widths {
		if w < 1 {
			return nil, fmt.Errorf("experiments: bad TAM width %d", w)
		}
		if w > maxWidth {
			maxWidth = w
		}
	}
	type wrapped struct {
		name    string
		designs []tam.Design
	}
	ws := make([]wrapped, len(dies))
	err := par.ForEachIndex(context.Background(), len(dies), func(_ context.Context, di int) error {
		d := dies[di]
		res, err := wcm.Run(d.Input(), OurOptions(d, true))
		if err != nil {
			return fmt.Errorf("tam %s: %w", d.Profile.Name(), err)
		}
		tb, err := EvaluateStuckAt(d, res.Assignment, budget)
		if err != nil {
			return err
		}
		designs, err := tam.Enumerate(d.Netlist, d.Placement, res.Assignment, tb.Patterns, maxWidth)
		if err != nil {
			return err
		}
		ws[di] = wrapped{name: d.Profile.Name(), designs: designs}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Group the wrapped dies into stacks by circuit family, preserving
	// the input's family order.
	var families []string
	stacks := map[string][]tam.DieSpec{}
	for di, d := range dies {
		c := d.Profile.Circuit
		if _, ok := stacks[c]; !ok {
			families = append(families, c)
		}
		stacks[c] = append(stacks[c], tam.DieSpec{Name: ws[di].name, Designs: ws[di].designs})
	}

	var rows []TAMRow
	for _, c := range families {
		for _, w := range widths {
			specs := stacks[c]
			// A budget narrower than maxWidth only sees the designs that
			// fit; Pack filters, so the specs can be shared as-is.
			s, err := tam.Pack(specs, w)
			if err != nil {
				return nil, fmt.Errorf("tam %s width %d: %w", c, w, err)
			}
			rows = append(rows, TAMRow{
				Circuit:        c,
				Width:          w,
				MakespanCycles: s.MakespanCycles,
				SerialCycles:   s.SerialCycles,
				Utilization:    s.Utilization(),
			})
		}
	}
	return rows, nil
}

// RenderTAMWidths prints the rows the way results/tam_widths.txt commits
// them.
func RenderTAMWidths(w io.Writer, rows []TAMRow) {
	fmt.Fprintln(w, "TAM widths — stack test time vs total TAM wires (ours, tight timing)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stack\twires\tmakespan (cycles)\tserial (cycles)\tspeedup\tutilization")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.2fx\t%.1f%%\n",
			r.Circuit, r.Width, r.MakespanCycles, r.SerialCycles, r.Speedup(), 100*r.Utilization)
	}
	tw.Flush()
}

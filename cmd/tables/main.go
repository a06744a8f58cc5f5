// Command tables regenerates the paper's evaluation artifacts: Tables I-V
// and Figure 7 of "Timing Aware Wrapper Cells Reduction for Pre-bond
// Testing in 3D-ICs" (SOCC 2019), plus the TAM width sweep the paper stops
// short of (internal/tam).
//
// Usage:
//
//	tables -all                      # every table and figure, all 24 dies
//	tables -table 3 -circuits b12    # one table on one circuit family
//	tables -figure 7                 # the edge-growth figure (b20-b22)
//	tables -table 4 -budget reduced  # faster, lower-effort ATPG
//	tables -tam -widths 16,32,64     # stack test time vs total TAM wires
//	tables -refine -refine-budget 5s # greedy vs solver portfolio, all 24 dies
//	tables -batch                    # 24-die prepare+minimize sweep, one die per core
//	tables -replan                   # TSV-failure replan vs rerun, all 24 dies
//	tables -table 2 -json            # machine-readable rows
//
// With -json the output is an array of experiment reports in the shared
// schema from internal/service (one {"experiment","rows"} envelope per
// experiment run), so CLI and service output stay in lockstep.
//
// Runtime note: tables IV and V run full ATPG per die and method; on the
// b18-class dies that is minutes per die at the full budget.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"wcm3d"
	"wcm3d/internal/experiments"
	"wcm3d/internal/netgen"
	"wcm3d/internal/par"
	"wcm3d/internal/service"
	"wcm3d/internal/tsvrepair"
)

func main() {
	var (
		table        = flag.Int("table", 0, "table number to regenerate (1-5)")
		figure       = flag.Int("figure", 0, "figure number to regenerate (7)")
		tam          = flag.Bool("tam", false, "regenerate the TAM width sweep (stack test time vs total wires)")
		all          = flag.Bool("all", false, "regenerate every table, figure, and the TAM sweep")
		refineGap    = flag.Bool("refine", false, "regenerate the refinement gap table (greedy vs solver portfolio; not part of -all)")
		refineBudget = flag.Duration("refine-budget", 2*time.Second, "per-die wall budget for -refine")
		batchSweep   = flag.Bool("batch", false, "prepare and solve the Table II die set one die per core, with per-die stage timings (not part of -all)")
		replanSweep  = flag.Bool("replan", false, "time a single-TSV-failure incremental replan against a from-scratch rerun on the Table II die set (internal/tsvrepair; not part of -all)")
		circuits     = flag.String("circuits", "", "comma-separated circuit families (default: the paper's set for each experiment)")
		widths       = flag.String("widths", "16,32,64", `comma-separated total TAM wire budgets for -tam`)
		seed         = flag.Int64("seed", 1, "generation seed")
		budget       = flag.String("budget", "full", "ATPG effort: full or reduced")
		short        = flag.Bool("short", false, "shorthand for -budget reduced -circuits b11,b12")
		asJSON       = flag.Bool("json", false, "emit machine-readable experiment reports (service schema)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	runErr := run(os.Stdout, *table, *figure, *tam, *all, *refineGap, *refineBudget, *batchSweep, *replanSweep, *circuits, *widths, *seed, *budget, *short, *asJSON)
	if err := stopProfiles(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "tables:", runErr)
		os.Exit(1)
	}
}

// startProfiles turns on the requested pprof outputs and returns the hook
// that finishes them — CPU profiling stops, and the heap profile is
// snapshotted after a GC so it reflects live data, not garbage.
func startProfiles(cpuprofile, memprofile string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuprofile != "" {
		cpuFile, err = os.Create(cpuprofile)
		if err != nil {
			return nil, fmt.Errorf("creating -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("closing -cpuprofile: %w", err)
			}
		}
		if memprofile != "" {
			f, err := os.Create(memprofile)
			if err != nil {
				return fmt.Errorf("creating -memprofile: %w", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("writing -memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

func run(w io.Writer, table, figure int, tam, all, refineGap bool, refineBudget time.Duration, batchSweep, replanSweep bool, circuits, widthList string, seed int64, budgetName string, short, asJSON bool) error {
	if short {
		budgetName = "reduced"
		if circuits == "" {
			circuits = "b11,b12"
		}
	}
	var budget experiments.ATPGBudget
	switch budgetName {
	case "full":
		budget = experiments.DefaultBudget(seed)
	case "reduced":
		budget = experiments.ReducedBudget(seed)
	default:
		return fmt.Errorf("unknown budget %q (want full or reduced)", budgetName)
	}
	tamWidths, err := parseWidths(widthList)
	if err != nil {
		return err
	}

	profilesFor := func(defaults []string) ([]netgen.Profile, error) {
		names := defaults
		if circuits != "" {
			names = strings.Split(circuits, ",")
		}
		var out []netgen.Profile
		for _, name := range names {
			ps := netgen.ITC99Circuit(strings.TrimSpace(name))
			if ps == nil {
				return nil, fmt.Errorf("unknown circuit %q", name)
			}
			out = append(out, ps...)
		}
		return out, nil
	}
	allCircuits := netgen.ITC99CircuitNames()
	bigThree := []string{"b20", "b21", "b22"}

	want := func(n int, isFigure bool) bool {
		if all {
			return true
		}
		if isFigure {
			return figure == n
		}
		return table == n
	}
	if !all && !tam && !refineGap && !batchSweep && !replanSweep && table == 0 && figure == 0 {
		return fmt.Errorf("nothing to do: pass -all, -table N, -figure 7, -tam, -refine, -batch, or -replan")
	}
	ran := false

	// In JSON mode the experiments accumulate envelopes instead of
	// rendering, and the timing notes stay off the data stream.
	var reports []service.ExperimentReport
	emit := func(name string, rows any, render func(io.Writer)) {
		if asJSON {
			reports = append(reports, service.ExperimentReport{Experiment: name, Rows: rows})
			return
		}
		render(w)
	}
	timed := func(name string, f func() error) error {
		start := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if !asJSON {
			fmt.Fprintf(w, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		}
		return nil
	}

	if want(1, false) {
		ran = true
		profiles, err := profilesFor([]string{"b12"})
		if err != nil {
			return err
		}
		if err := timed("Table I", func() error {
			dies, err := experiments.PrepareSuite(profiles, seed)
			if err != nil {
				return err
			}
			rows, err := experiments.Table1(dies, budget)
			if err != nil {
				return err
			}
			emit("table1", rows, func(w io.Writer) { experiments.RenderTable1(w, rows) })
			return nil
		}); err != nil {
			return err
		}
	}
	if want(2, false) {
		ran = true
		profiles, err := profilesFor(allCircuits)
		if err != nil {
			return err
		}
		if err := timed("Table II", func() error {
			rows, err := experiments.Table2(profiles, seed)
			if err != nil {
				return err
			}
			emit("table2", rows, func(w io.Writer) { experiments.RenderTable2(w, rows) })
			return nil
		}); err != nil {
			return err
		}
	}
	if want(3, false) {
		ran = true
		profiles, err := profilesFor(allCircuits)
		if err != nil {
			return err
		}
		if err := timed("Table III", func() error {
			dies, err := experiments.PrepareSuite(profiles, seed)
			if err != nil {
				return err
			}
			rows, err := experiments.Table3(dies)
			if err != nil {
				return err
			}
			emit("table3", rows, func(w io.Writer) { experiments.RenderTable3(w, rows) })
			return nil
		}); err != nil {
			return err
		}
	}
	if want(4, false) {
		ran = true
		profiles, err := profilesFor(allCircuits)
		if err != nil {
			return err
		}
		if err := timed("Table IV", func() error {
			dies, err := experiments.PrepareSuite(profiles, seed)
			if err != nil {
				return err
			}
			rows, err := experiments.Table4(dies, budget)
			if err != nil {
				return err
			}
			emit("table4", rows, func(w io.Writer) { experiments.RenderTable4(w, rows) })
			return nil
		}); err != nil {
			return err
		}
	}
	if want(5, false) {
		ran = true
		profiles, err := profilesFor(bigThree)
		if err != nil {
			return err
		}
		if err := timed("Table V", func() error {
			dies, err := experiments.PrepareSuite(profiles, seed)
			if err != nil {
				return err
			}
			rows, err := experiments.Table5(dies, budget)
			if err != nil {
				return err
			}
			emit("table5", rows, func(w io.Writer) { experiments.RenderTable5(w, rows) })
			return nil
		}); err != nil {
			return err
		}
	}
	if want(7, true) {
		ran = true
		profiles, err := profilesFor(bigThree)
		if err != nil {
			return err
		}
		if err := timed("Figure 7", func() error {
			dies, err := experiments.PrepareSuite(profiles, seed)
			if err != nil {
				return err
			}
			rows, err := experiments.Figure7(dies)
			if err != nil {
				return err
			}
			emit("figure7", rows, func(w io.Writer) { experiments.RenderFigure7(w, rows) })
			return nil
		}); err != nil {
			return err
		}
	}
	if all || tam {
		ran = true
		profiles, err := profilesFor(allCircuits)
		if err != nil {
			return err
		}
		if err := timed("TAM widths", func() error {
			dies, err := experiments.PrepareSuite(profiles, seed)
			if err != nil {
				return err
			}
			rows, err := experiments.TAMWidths(dies, tamWidths, budget)
			if err != nil {
				return err
			}
			emit("tam_widths", rows, func(w io.Writer) { experiments.RenderTAMWidths(w, rows) })
			return nil
		}); err != nil {
			return err
		}
	}
	if refineGap {
		ran = true
		profiles, err := profilesFor(allCircuits)
		if err != nil {
			return err
		}
		if err := timed("Refinement gap", func() error {
			dies, err := experiments.PrepareSuite(profiles, seed)
			if err != nil {
				return err
			}
			rows, err := experiments.RefineGap(dies, refineBudget, seed)
			if err != nil {
				return err
			}
			emit("refine_gap", rows, func(w io.Writer) { experiments.RenderRefineGap(w, rows) })
			return nil
		}); err != nil {
			return err
		}
	}
	if batchSweep {
		ran = true
		profiles, err := profilesFor(allCircuits)
		if err != nil {
			return err
		}
		if err := timed("Batch sweep", func() error {
			rows, elapsed, err := batchSweepRows(profiles, seed)
			if err != nil {
				return err
			}
			emit("batch_sweep", rows, func(w io.Writer) { renderBatchSweep(w, rows, elapsed) })
			return nil
		}); err != nil {
			return err
		}
	}
	if replanSweep {
		ran = true
		profiles, err := profilesFor(allCircuits)
		if err != nil {
			return err
		}
		if err := timed("Replan speedup", func() error {
			rows, err := replanSweepRows(profiles, seed)
			if err != nil {
				return err
			}
			emit("replan_speedup", rows, func(w io.Writer) { renderReplanSweep(w, rows) })
			return nil
		}); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("no experiment matches -table %d / -figure %d", table, figure)
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	return nil
}

// batchSweepRow is one die of the -batch sweep: the paper-method plan
// under tight timing, plus where that die's wall time went.
type batchSweepRow struct {
	Die             string
	ReusedFFs       int
	AdditionalCells int
	PrepareMS       float64
	SolveMS         float64

	// plan is the die's full plan, kept for the serial-equivalence test;
	// it is small next to the die and stays out of the JSON rows.
	plan *wcm3d.MinimizeResult
}

// batchSweepRows prepares and solves the profiles one die per core
// (par.ForEachIndex), as the experiment suites do. Preparation skips the
// fault lists, which a minimize-only sweep never reads, and each die is
// dropped once its row is filled, so at most GOMAXPROCS dies are resident.
// The plans are bit-identical to serial wcm3d.Minimize calls; the
// returned duration is the wall clock of the whole loop.
func batchSweepRows(profiles []netgen.Profile, seed int64) ([]batchSweepRow, time.Duration, error) {
	rows := make([]batchSweepRow, len(profiles))
	start := time.Now()
	err := par.ForEachIndex(context.Background(), len(profiles), func(_ context.Context, i int) error {
		t0 := time.Now()
		d, err := experiments.PrepareDieOpts(profiles[i], seed, experiments.PrepareOptions{SkipFaultLists: true})
		if err != nil {
			return fmt.Errorf("die %s: preparing: %w", profiles[i].Name(), err)
		}
		t1 := time.Now()
		res, err := wcm3d.Minimize(d, wcm3d.MethodOurs, wcm3d.TightTiming)
		if err != nil {
			return fmt.Errorf("die %s: solving: %w", profiles[i].Name(), err)
		}
		rows[i] = batchSweepRow{
			Die:             profiles[i].Name(),
			ReusedFFs:       res.ReusedFFs,
			AdditionalCells: res.AdditionalCells,
			PrepareMS:       float64(t1.Sub(t0)) / float64(time.Millisecond),
			SolveMS:         float64(time.Since(t1)) / float64(time.Millisecond),
			plan:            res,
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return rows, time.Since(start), nil
}

// renderBatchSweep prints the per-die plan numbers and stage timings, with
// totals and the loop's wall clock (smaller than the stage-time sum when
// dies ran on several cores).
func renderBatchSweep(w io.Writer, rows []batchSweepRow, elapsed time.Duration) {
	fmt.Fprintln(w, "Batch sweep — one die per core, paper method, tight timing")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "die\treused FFs\tadded cells\tprepare ms\tsolve ms")
	var reused, cells int
	var prepMS, solveMS float64
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%.1f\n",
			r.Die, r.ReusedFFs, r.AdditionalCells, r.PrepareMS, r.SolveMS)
		reused += r.ReusedFFs
		cells += r.AdditionalCells
		prepMS += r.PrepareMS
		solveMS += r.SolveMS
	}
	fmt.Fprintf(tw, "Total\t%d\t%d\t%.1f\t%.1f\n", reused, cells, prepMS, solveMS)
	tw.Flush()
	fmt.Fprintf(w, "pipeline wall clock: %v for %d dies (stage time %.1f ms)\n",
		elapsed.Round(time.Millisecond), len(rows), prepMS+solveMS)
}

// replanSweepRows times a single-TSV-failure replan against a from-scratch
// rerun on every profile: each die is prepared once with two spare sites
// per side, then tsvrepair.MeasureSpeedup runs three cold trials under the
// paper's method and tight timing. See results/replan_speedup.txt and
// docs/REPLAN.md.
func replanSweepRows(profiles []netgen.Profile, seed int64) ([]tsvrepair.SpeedupRow, error) {
	const trials = 3
	rows := make([]tsvrepair.SpeedupRow, 0, len(profiles))
	for _, p := range profiles {
		d, err := tsvrepair.PrepareWithSpares(p, seed, tsvrepair.SpareSpec{Inbound: 2, Outbound: 2})
		if err != nil {
			return nil, fmt.Errorf("die %s: %w", p.Name(), err)
		}
		opts := experiments.OurOptions(d, experiments.Scenario{Name: "tight", Tight: true})
		row, err := tsvrepair.MeasureSpeedup(d, opts, trials)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// renderReplanSweep prints the per-die timings with the differential
// columns (equal = incremental plan deep-equal to the rerun, verified =
// the plan passed the independent checker) and the median-ratio headline
// the replan-equivalence CI job asserts on.
func renderReplanSweep(w io.Writer, rows []tsvrepair.SpeedupRow) {
	fmt.Fprintln(w, "Replan speedup — one stuck-at TSV failure, incremental replan vs from-scratch rerun")
	fmt.Fprintln(w, "(medians over 3 cold trials per die; paper method, tight timing, 2+2 spare sites)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "die\treplan ms\trerun ms\tspeedup\tequal\tverified")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.2fx\t%v\t%v\n",
			r.Die, r.ReplanMS, r.RerunMS, r.Ratio, r.Equal, r.Verified)
	}
	tw.Flush()
	fmt.Fprintf(w, "median speedup: %.2fx over %d dies\n", tsvrepair.MedianRatio(rows), len(rows))
}

func parseWidths(widthList string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(widthList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad TAM width %q", s)
		}
		out = append(out, n)
	}
	return out, nil
}

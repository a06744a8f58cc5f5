// Command wcmflow runs the complete design flow of the paper's Figure 6 on
// one die: generation (or parsing), placement, timing, TSV analysis, graph
// construction, clique partitioning, DFT insertion, ATPG, and the final
// timing signoff — printing a report at each stage.
//
// Usage:
//
//	wcmflow -profile b12/1                      # paper benchmark die
//	wcmflow -netlist die.bench                  # your own die
//	wcmflow -profile b18/2 -method agrawal -timing tight
//	wcmflow -profile b12/1 -compare             # all methods side by side
//	wcmflow -profile b12/1 -json                # machine-readable output
//
// Each method runs through the wcmd daemon's own per-die stage
// (service.RunDie), so with -json the output is an array of exactly the
// reports the daemon returns as job results for the same die.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"text/tabwriter"

	"wcm3d"
	"wcm3d/internal/service"
)

func main() {
	var (
		profile = flag.String("profile", "", `Table II die, e.g. "b12/1"`)
		netPath = flag.String("netlist", "", "path to a .bench die (alternative to -profile)")
		method  = flag.String("method", "ours", "ours | agrawal | li | fullwrap")
		timing  = flag.String("timing", "tight", "tight | loose")
		seed    = flag.Int64("seed", 1, "generation / ATPG seed")
		compare = flag.Bool("compare", false, "run every method and tabulate")
		atpg    = flag.Bool("atpg", true, "run stuck-at ATPG on the result")
		budget  = flag.String("budget", "full", "ATPG effort: full or reduced")
		asJSON  = flag.Bool("json", false, "emit the machine-readable report (service schema)")
	)
	flag.Parse()
	if err := run(os.Stdout, *profile, *netPath, *method, *timing, *seed, *compare, *atpg, *budget, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "wcmflow:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, profile, netPath, methodName, timingName string, seed int64, compare, runATPG bool, budgetName string, asJSON bool) error {
	die, name, err := wcm3d.LoadDie(profile, netPath, seed, wcm3d.SpareSpec{})
	if err != nil {
		return err
	}
	methods := []string{methodName}
	if compare {
		methods = []string{"fullwrap", "li", "agrawal", "ours"}
	}
	// Each method runs through the daemon's own per-die stage, as a job
	// request would.
	var reports []*service.Report
	for _, m := range methods {
		req := service.JobRequest{Seed: seed, Method: m, Timing: timingName, ATPG: runATPG, Budget: budgetName}
		rep, err := service.RunDie(context.Background(), req, name, die, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", m, err)
		}
		reports = append(reports, rep)
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	return renderText(w, die, reports[0].Die, reports)
}

func renderText(w io.Writer, die *wcm3d.Die, info service.DieInfo, reports []*service.Report) error {
	fmt.Fprintf(w, "die %s: %s\n", info.Name, dieStats(die))
	fmt.Fprintf(w, "clock %.1f ps (margin %.1f ps), placement %.0fx%.0f µm\n\n",
		info.ClockPS, info.MarginPS, info.WidthUM, info.HeightUM)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "method\treused FFs\tadded cells\tDFT area (µm²)\ttiming\tWNS (ps)\tstuck-at cov\t#patterns\ttest cycles")
	for _, rep := range reports {
		timingMark := "meets"
		if !rep.TimingMet {
			timingMark = "VIOLATES"
		}
		cov, pats, cycles := "-", "-", "-"
		if rep.StuckAt != nil {
			cov = fmt.Sprintf("%.2f%%", 100*rep.StuckAt.Coverage)
			pats = strconv.Itoa(rep.StuckAt.Patterns)
			cycles = strconv.Itoa(rep.TestCycles)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%s\t%.1f\t%s\t%s\t%s\n",
			rep.Method, rep.ReusedFFs, rep.AdditionalCells, rep.DFTAreaUM2,
			timingMark, rep.WNSPS, cov, pats, cycles)
	}
	return tw.Flush()
}

func dieStats(d *wcm3d.Die) string {
	return fmt.Sprintf("%d FFs, %d gates, %d inbound + %d outbound TSVs",
		len(d.Netlist.FlipFlops()), d.Netlist.NumLogicGates(),
		len(d.Netlist.InboundTSVs()), len(d.Netlist.OutboundTSVs()))
}

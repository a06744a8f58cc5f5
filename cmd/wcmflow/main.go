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
// With -json the output is an array of reports in the same schema the wcmd
// daemon returns for job results (internal/service), so CLI and service
// output stay in lockstep.
package main

import (
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
	mode, err := wcm3d.ParseTimingMode(timingName)
	if err != nil {
		return err
	}
	bud, err := wcm3d.ParseBudget(budgetName, seed)
	if err != nil {
		return err
	}

	var methods []wcm3d.Method
	if compare {
		methods = []wcm3d.Method{wcm3d.MethodFullWrap, wcm3d.MethodLi, wcm3d.MethodAgrawal, wcm3d.MethodOurs}
	} else {
		m, err := wcm3d.ParseMethod(methodName)
		if err != nil {
			return err
		}
		methods = []wcm3d.Method{m}
	}

	info := service.DescribeDie(name, seed, die)
	var reports []*service.Report
	for _, m := range methods {
		res, err := wcm3d.Minimize(die, m, mode)
		if err != nil {
			return fmt.Errorf("%v: %w", m, err)
		}
		rep := service.EncodeResult(info, m, mode, res, die.Lib)
		viol, wns, err := wcm3d.CheckTiming(die, res.Assignment)
		if err != nil {
			return err
		}
		rep.SetSignoff(viol, wns)
		if runATPG {
			tb, err := wcm3d.EvaluateStuckAt(die, res.Assignment, bud)
			if err != nil {
				return err
			}
			// Tester time under a 4-chain scan architecture.
			chains, err := wcm3d.BuildScanChains(die, res.Assignment, 4)
			if err != nil {
				return err
			}
			rep.SetStuckAt(tb, chains.TestCycles(tb.Patterns))
		}
		reports = append(reports, rep)
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	return renderText(w, die, info, reports)
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

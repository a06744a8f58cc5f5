// Command refine runs the anytime solver portfolio over a greedy
// minimization result: large-neighborhood destroy/repair, deterministic
// local search and seeded simulated annealing run one after another, each
// on a share of one wall budget, and the best plan that passes the
// independent verifier wins.
// The output is the before/after cell count, the capacity lower bound on
// refine's model (phase two priced from greedy's phase-one hardware) with
// the plan's gap to it, and each solver's search statistics. A plan at the
// bound is optimal on the model, and the portfolio stops there.
//
// Usage:
//
//	refine -profile b12/1                        # paper benchmark die
//	refine -netlist die.bench                    # your own die
//	refine -profile b12/1 -budget 10s -seed 7    # deeper, reproducible
//	refine -profile b12/1 -strategies local,lns  # subset of the portfolio
//	refine -profile b12/1 -crosscheck            # audit the incremental evaluator
//	refine -profile b12/1 -json                  # machine-readable report
//
// With -json the output is the same RefineReport schema the wcmd daemon
// attaches to job results when asked with refine=true (internal/service).
// Methods without a threshold contract (li, fullwrap) carry no sharing
// model to refine and are rejected. The exit status is 0 whether or not
// the portfolio improved the plan; it is 1 only when the run itself
// failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wcm3d"
	"wcm3d/internal/service"
)

func main() {
	var (
		profile    = flag.String("profile", "", `Table II die, e.g. "b12/1"`)
		netPath    = flag.String("netlist", "", "path to a .bench die (alternative to -profile)")
		method     = flag.String("method", "ours", "ours | agrawal (li and fullwrap have no threshold contract)")
		timing     = flag.String("timing", "tight", "tight | loose")
		seed       = flag.Int64("seed", 1, "generation / placement seed; also drives the annealer RNG")
		budget     = flag.Duration("budget", 0, "wall budget for the portfolio (0 = default)")
		steps      = flag.Int("steps", 0, "per-strategy step budget (0 = per-strategy default; fixed steps make runs reproducible)")
		strategies = flag.String("strategies", "", `comma-separated strategies in run order, from "lns,local,anneal" (empty = all; duplicates collapse)`)
		crosscheck = flag.Bool("crosscheck", false, "audit every incremental move against a full rematch (slow; debug)")
		asJSON     = flag.Bool("json", false, "emit the machine-readable report (service schema)")
	)
	flag.Parse()
	ro := wcm3d.RefineOptions{
		Budget:     *budget,
		Seed:       *seed,
		MaxSteps:   *steps,
		CrossCheck: *crosscheck,
	}
	if err := run(os.Stdout, *profile, *netPath, *method, *timing, ro, *strategies, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "refine:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, profile, netPath, methodName, timingName string, ro wcm3d.RefineOptions, strategyList string, asJSON bool) error {
	seed := ro.Seed
	die, name, err := wcm3d.LoadDie(profile, netPath, seed, wcm3d.SpareSpec{})
	if err != nil {
		return err
	}
	m, err := wcm3d.ParseMethod(methodName)
	if err != nil {
		return err
	}
	mode, err := wcm3d.ParseTimingMode(timingName)
	if err != nil {
		return err
	}
	opts, ok := wcm3d.MethodOptions(die, m, mode)
	if !ok {
		return fmt.Errorf("method %v carries no threshold contract to refine against", m)
	}
	res, err := wcm3d.MinimizeWith(die, opts)
	if err != nil {
		return fmt.Errorf("%v: %w", m, err)
	}
	ro.Strategies = parseStrategies(strategyList)
	rr, err := wcm3d.Refine(context.Background(), die, opts, res, ro)
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(service.EncodeRefine(rr))
	}
	fmt.Fprintf(w, "die %s, method %s, timing %s: greedy plan adds %d cells\n",
		name, m, mode, rr.GreedyCells)
	if rr.Improved {
		fmt.Fprintf(w, "refined: %d cells (saved %d), %d FFs reused — won by %s\n",
			rr.AdditionalCells, rr.CellsSaved, rr.ReusedFFs, rr.Strategy)
	} else {
		fmt.Fprintln(w, "refined: no verified improvement found within budget")
	}
	fmt.Fprintf(w, "lower bound on refine's model: %d cells (gap %d)\n",
		rr.LowerBound, rr.AdditionalCells-rr.LowerBound)
	for _, so := range rr.Strategies {
		line := fmt.Sprintf("  %-6s %d steps, %d proposed, %d admitted, %d rejected",
			so.Name, so.Steps, so.Proposed, so.Admitted, so.Rejected)
		if so.Deadline {
			line += " (deadline)"
		}
		if so.Err != "" {
			line += " error: " + so.Err
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

// parseStrategies splits a comma-separated -strategies value, dropping
// blanks; validation (unknown names, duplicate collapsing) happens in the
// portfolio itself so CLI and service agree on the rules.
func parseStrategies(list string) []string {
	var out []string
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

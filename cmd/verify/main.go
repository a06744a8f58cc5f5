// Command verify independently certifies a wrapper plan: it re-runs the
// minimization for a die, then hands the finished plan to the from-scratch
// checker in internal/verify, which re-derives every invariant the paper's
// flow promises (TSV coverage, clique validity, capacitance and distance
// budgets, per-reuse timing slack) without sharing code with the optimizer.
//
// Usage:
//
//	verify -profile b12/1                      # paper benchmark die
//	verify -netlist die.bench                  # your own die
//	verify -profile b18/2 -method agrawal -timing loose
//	verify -profile b12/1 -signoff             # + functional-mode STA
//	verify -profile b12/1 -deep                # + measured ATPG on overlaps
//	verify -profile b12/1 -json                # machine-readable report
//
// With -json the output is the same VerifyReport schema the wcmd daemon
// attaches to job results when asked with verify=true (internal/service),
// so CLI and service output stay in lockstep. The exit status is 0 for a
// certified plan and 1 when the verifier found violations (or failed to
// run), so the command slots directly into CI pipelines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"wcm3d"
	"wcm3d/internal/service"
	"wcm3d/internal/verify"
)

func main() {
	var (
		profile = flag.String("profile", "", `Table II die, e.g. "b12/1"`)
		netPath = flag.String("netlist", "", "path to a .bench die (alternative to -profile)")
		method  = flag.String("method", "ours", "ours | agrawal | li | fullwrap")
		timing  = flag.String("timing", "tight", "tight | loose")
		seed    = flag.Int64("seed", 1, "generation / placement seed")
		signoff = flag.Bool("signoff", false, "also re-run functional-mode timing signoff")
		deep    = flag.Bool("deep", false, "also measure overlapped-cone sharing with ATPG (advisory)")
		oracle  = flag.Bool("oracle", false, "on tiny dies, also print the heuristic-vs-optimal cell delta (exhaustive oracle)")
		asJSON  = flag.Bool("json", false, "emit the machine-readable report (service schema)")
	)
	flag.Parse()
	ok, err := run(os.Stdout, *profile, *netPath, *method, *timing, *seed, *signoff, *deep, *oracle, *asJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "verify:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(w io.Writer, profile, netPath, methodName, timingName string, seed int64, signoff, deep, oracle, asJSON bool) (bool, error) {
	die, name, err := wcm3d.LoadDie(profile, netPath, seed, wcm3d.SpareSpec{})
	if err != nil {
		return false, err
	}
	m, err := wcm3d.ParseMethod(methodName)
	if err != nil {
		return false, err
	}
	mode, err := wcm3d.ParseTimingMode(timingName)
	if err != nil {
		return false, err
	}
	res, err := wcm3d.Minimize(die, m, mode)
	if err != nil {
		return false, fmt.Errorf("%v: %w", m, err)
	}
	vres, err := wcm3d.VerifyPlan(die, res, wcm3d.VerifyOptions{Signoff: signoff, Deep: deep})
	if err != nil {
		return false, err
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(service.EncodeVerify(vres)); err != nil {
			return false, err
		}
		return vres.OK(), nil
	}
	fmt.Fprintf(w, "die %s, method %s, timing %s: plan reuses %d FFs, adds %d cells\n",
		name, m, mode, res.ReusedFFs, res.AdditionalCells)
	fmt.Fprintln(w, vres.Summary())
	for _, v := range vres.Violations {
		fmt.Fprintf(w, "  violation: %s\n", v)
	}
	for _, v := range vres.Warnings {
		fmt.Fprintf(w, "  warning: %s\n", v)
	}
	if signoff {
		fmt.Fprintf(w, "functional-mode signoff WNS: %.1f ps\n", vres.SignoffWNSPS)
	}
	if oracle {
		reportOracleDelta(w, die, res)
	}
	return vres.OK(), nil
}

// reportOracleDelta compares the plan against the exhaustive oracle in
// replay mode (the oracle's second phase sees the flip-flop availability
// the heuristic left behind, making the comparison a per-phase optimality
// statement). The delta is informational: a gap reports how many cells
// greedy merging left on the table, it never changes the exit status. Dies
// past the oracle's exhaustive bound just report that they are out of
// range.
func reportOracleDelta(w io.Writer, die *wcm3d.Die, res *wcm3d.MinimizeResult) {
	if res.Options.Order == 0 {
		fmt.Fprintln(w, "oracle: not applicable — this method carries no threshold contract")
		return
	}
	in := die.Input()
	in.RefreshTiming = nil // the oracle prices both phases against the base analysis
	var replayed []wcm3d.SignalID
	if len(res.Phases) > 0 && res.Phases[0].Inbound {
		for _, g := range res.Assignment.Control {
			if g.Reused() {
				replayed = append(replayed, g.ReusedFF)
			}
		}
	} else if len(res.Phases) > 0 {
		for _, g := range res.Assignment.Observe {
			if g.Reused() {
				replayed = append(replayed, g.ReusedFF)
			}
		}
	}
	orc, err := verify.Oracle(in, res.Options, verify.OracleOptions{ReplayConsumption: replayed})
	if err != nil {
		fmt.Fprintf(w, "oracle: out of range for this die (%v)\n", err)
		return
	}
	delta := res.AdditionalCells - orc.AdditionalCells
	switch {
	case delta > 0:
		fmt.Fprintf(w, "oracle: optimal needs %d cells, heuristic inserted %d — %d on the table (try the refine portfolio)\n",
			orc.AdditionalCells, res.AdditionalCells, delta)
	case delta == 0:
		fmt.Fprintf(w, "oracle: heuristic is optimal on this die (%d cells)\n", res.AdditionalCells)
	default:
		fmt.Fprintf(w, "oracle: heuristic beat the oracle by %d cells — this is a bug, please report it\n", -delta)
	}
}

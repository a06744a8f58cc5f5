// Command replan exercises the TSV-defect repair flow: it prepares a die
// with spare TSV sites, plans the baseline wrapper assignment, applies a
// sequence of TSV faults — each rerouted to a spare — and replans
// incrementally after every delta, certifying each incremental plan
// against a from-scratch rerun and the independent verifier.
//
// Usage:
//
//	replan -profile b12/1 -fault stuck0:tin0
//	replan -profile b13/2 -spares-in 4 -fault open:tin1 -fault bridge:tin2+tin3
//	replan -netlist die.bench -fault crosstalk:tin0+tout1
//	replan -profile b12/1 -fault stuck0:tin0 -json
//
// Fault syntax is kind:victim or kind:victim+partner, where victims name
// an inbound TSV's landing pad or an outbound TSV's port. Each -fault is
// one delta, applied and replanned in order. The exit status is 0 when
// every incremental plan matched its from-scratch reference and verified
// clean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"time"

	"wcm3d"
)

// faultList collects repeated -fault flags.
type faultList []wcm3d.TSVFault

func (fl *faultList) String() string {
	parts := make([]string, len(*fl))
	for i, f := range *fl {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

func (fl *faultList) Set(s string) error {
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return fmt.Errorf("fault %q: want kind:victim or kind:victim+partner", s)
	}
	kind, err := wcm3d.ParseTSVFaultKind(s[:colon])
	if err != nil {
		return err
	}
	f := wcm3d.TSVFault{Kind: kind, TSV: s[colon+1:]}
	if plus := strings.IndexByte(f.TSV, '+'); plus >= 0 {
		f.TSV, f.With = f.TSV[:plus], f.TSV[plus+1:]
	}
	*fl = append(*fl, f)
	return nil
}

// stepReport is the machine-readable record of one delta.
type stepReport struct {
	Fault           string            `json:"fault"`
	Repairs         []wcm3d.TSVRepair `json:"repairs"`
	ReusedFFs       int               `json:"reused_ffs"`
	AdditionalCells int               `json:"additional_cells"`
	Equal           bool              `json:"equal_to_rerun"`
	Verified        bool              `json:"verified"`
	ReplanMS        float64           `json:"replan_ms"`
	RerunMS         float64           `json:"rerun_ms"`
}

func main() {
	var faults faultList
	var (
		profile   = flag.String("profile", "", `Table II die, e.g. "b12/1"`)
		netPath   = flag.String("netlist", "", "path to a .bench die (alternative to -profile)")
		timing    = flag.String("timing", "tight", "tight | loose")
		seed      = flag.Int64("seed", 1, "generation / placement seed")
		sparesIn  = flag.Int("spares-in", 2, "inbound spare TSV sites to add")
		sparesOut = flag.Int("spares-out", 2, "outbound spare TSV sites to add")
		asJSON    = flag.Bool("json", false, "emit machine-readable step reports")
	)
	flag.Var(&faults, "fault", "TSV fault kind:victim[+partner]; repeatable, one delta each")
	flag.Parse()
	ok, err := run(os.Stdout, *profile, *netPath, *timing, *seed,
		wcm3d.SpareSpec{Inbound: *sparesIn, Outbound: *sparesOut}, faults, *asJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replan:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(w io.Writer, profile, netPath, timingName string, seed int64,
	spec wcm3d.SpareSpec, faults faultList, asJSON bool) (bool, error) {
	if len(faults) == 0 {
		return false, fmt.Errorf("pass at least one -fault")
	}
	die, name, err := wcm3d.LoadDie(profile, netPath, seed, spec)
	if err != nil {
		return false, err
	}
	mode, err := wcm3d.ParseTimingMode(timingName)
	if err != nil {
		return false, err
	}
	p, err := wcm3d.NewReplanPlanner(die, wcm3d.OurOptions(die, mode))
	if err != nil {
		return false, err
	}
	base := p.Baseline()
	if !asJSON {
		fmt.Fprintf(w, "die %s, timing %s: baseline reuses %d FFs, adds %d cells\n",
			name, mode, base.ReusedFFs, base.AdditionalCells)
	}

	allOK := true
	var steps []stepReport
	for _, f := range faults {
		step, err := applyOne(p, f)
		if err != nil {
			return false, fmt.Errorf("fault %s: %w", f, err)
		}
		allOK = allOK && step.Equal && step.Verified
		steps = append(steps, step)
		if !asJSON {
			printStep(w, step)
		}
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(steps); err != nil {
			return false, err
		}
	} else if in, out := p.SparesLeft(); true {
		fmt.Fprintf(w, "spares left: %d inbound, %d outbound\n", in, out)
	}
	return allOK, nil
}

func applyOne(p *wcm3d.ReplanPlanner, f wcm3d.TSVFault) (stepReport, error) {
	start := time.Now()
	res, reps, err := wcm3d.Replan(p, wcm3d.TSVDelta{Faults: []wcm3d.TSVFault{f}})
	if err != nil {
		return stepReport{}, err
	}
	replanD := time.Since(start)
	start = time.Now()
	ref, err := p.Rerun()
	if err != nil {
		return stepReport{}, fmt.Errorf("from-scratch reference: %w", err)
	}
	rerunD := time.Since(start)
	vr, err := p.Verify(res)
	if err != nil {
		return stepReport{}, fmt.Errorf("verify: %w", err)
	}
	return stepReport{
		Fault:           f.String(),
		Repairs:         reps,
		ReusedFFs:       res.ReusedFFs,
		AdditionalCells: res.AdditionalCells,
		Equal:           reflect.DeepEqual(res, ref),
		Verified:        vr.OK(),
		ReplanMS:        float64(replanD.Microseconds()) / 1e3,
		RerunMS:         float64(rerunD.Microseconds()) / 1e3,
	}, nil
}

func printStep(w io.Writer, s stepReport) {
	for _, r := range s.Repairs {
		side := "outbound"
		if r.Inbound {
			side = "inbound"
		}
		fmt.Fprintf(w, "  repair: %s %s -> spare %s\n", side, r.Failed, r.Spare)
	}
	status := "OK"
	if !s.Equal {
		status = "MISMATCH vs rerun"
	} else if !s.Verified {
		status = "VERIFY FAILED"
	}
	fmt.Fprintf(w, "%s: reuses %d FFs, adds %d cells — %s (replan %.1f ms, rerun %.1f ms)\n",
		s.Fault, s.ReusedFFs, s.AdditionalCells, status, s.ReplanMS, s.RerunMS)
}

// Command schedule answers the question that follows wrapper-cell
// minimization in any real pre-bond flow: given wrapped dies, how should a
// tester's TAM wires be allocated and the die tests scheduled so the whole
// stack finishes fastest? It wraps each die (same methods and profiles as
// cmd/wcmflow), grades it with stuck-at ATPG, enumerates its Pareto
// (TAM width, test cycles) wrapper designs, and packs one rectangle per
// die into the (total width × time) plane.
//
// Usage:
//
//	schedule -circuit b12 -width 32              # the b12 four-die stack
//	schedule -profiles b11/0,b11/2 -width 16     # an explicit stack
//	schedule -circuit b12 -widths 16,32,64       # width sweep
//	schedule -circuit b12 -width 32 -json        # machine-readable output
//
// The dies are wrapped and graded by the wcmd daemon's own stack stage
// (service.StackDies), so with -json the output is an array of exactly the
// reports POST /v1/schedules returns for the same stack and width.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"wcm3d"
	"wcm3d/internal/service"
)

func main() {
	var (
		circuit  = flag.String("circuit", "", `benchmark family whose four dies form the stack, e.g. "b12"`)
		profiles = flag.String("profiles", "", `comma-separated Table II dies, e.g. "b11/0,b12/1"`)
		width    = flag.Int("width", 32, "total TAM wire budget")
		widths   = flag.String("widths", "", `comma-separated budgets to sweep, e.g. "16,32,64" (overrides -width)`)
		method   = flag.String("method", "ours", "ours | agrawal | li | fullwrap")
		timing   = flag.String("timing", "tight", "tight | loose")
		seed     = flag.Int64("seed", 1, "generation / ATPG seed")
		budget   = flag.String("budget", "full", "ATPG effort: full or reduced")
		asJSON   = flag.Bool("json", false, "emit the machine-readable reports (service schema)")
	)
	flag.Parse()
	if err := run(os.Stdout, *circuit, *profiles, *width, *widths, *method, *timing, *seed, *budget, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "schedule:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, circuit, profileList string, width int, widthList, methodName, timingName string, seed int64, budgetName string, asJSON bool) error {
	stackName, profiles, err := resolveStack(circuit, profileList)
	if err != nil {
		return err
	}
	budgets, err := resolveWidths(width, widthList)
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
	bud, err := wcm3d.ParseBudget(budgetName, seed)
	if err != nil {
		return err
	}

	dies, err := wcm3d.PrepareSuite(profiles, seed)
	if err != nil {
		return err
	}
	stack, err := service.StackDies(context.Background(), len(dies), func(i int) (string, *wcm3d.Die, error) {
		return profiles[i].Name(), dies[i], nil
	}, m, mode, bud)
	if err != nil {
		return err
	}

	var reports []*service.ScheduleReport
	for _, wires := range budgets {
		rep, err := service.EncodeSchedule(stackName, m, mode, seed, stack, wires)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	for i, rep := range reports {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := renderText(w, rep); err != nil {
			return err
		}
	}
	return nil
}

func resolveStack(circuit, profileList string) (string, []wcm3d.Profile, error) {
	switch {
	case circuit != "" && profileList != "":
		return "", nil, fmt.Errorf("pass -circuit or -profiles, not both")
	case circuit != "":
		ps := wcm3d.CircuitProfiles(circuit)
		if ps == nil {
			return "", nil, fmt.Errorf("unknown circuit %q", circuit)
		}
		return circuit, ps, nil
	case profileList != "":
		var ps []wcm3d.Profile
		for _, name := range strings.Split(profileList, ",") {
			p, err := wcm3d.ProfileByName(strings.TrimSpace(name))
			if err != nil {
				return "", nil, err
			}
			ps = append(ps, p)
		}
		return "custom", ps, nil
	default:
		return "", nil, fmt.Errorf("pass -circuit or -profiles")
	}
}

func resolveWidths(width int, widthList string) ([]int, error) {
	if widthList == "" {
		if width < 1 {
			return nil, fmt.Errorf("width must be >= 1, got %d", width)
		}
		return []int{width}, nil
	}
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

func renderText(w io.Writer, rep *service.ScheduleReport) error {
	s := rep.Schedule
	fmt.Fprintf(w, "stack %s: %d dies, %d TAM wires, method %s, timing %s\n",
		rep.Stack, len(rep.Dies), s.TotalWidth, rep.Method, rep.Timing)
	fmt.Fprintf(w, "makespan %d cycles (serial %d, %.2fx speedup, %.1f%% plane utilization)\n",
		s.MakespanCycles, s.SerialCycles,
		float64(s.SerialCycles)/float64(max(s.MakespanCycles, 1)), 100*rep.Utilization)
	patterns := make(map[string]int, len(rep.Dies))
	for _, d := range rep.Dies {
		patterns[d.Die.Name] = d.Patterns
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "die\twires\tstart\tend\tcycles\tpatterns")
	for _, sl := range s.Slots {
		fmt.Fprintf(tw, "%s\t%d..%d\t%d\t%d\t%d\t%d\n",
			sl.Die, sl.FirstWire, sl.FirstWire+sl.Width, sl.StartCycle, sl.EndCycle,
			sl.Cycles(), patterns[sl.Die])
	}
	return tw.Flush()
}

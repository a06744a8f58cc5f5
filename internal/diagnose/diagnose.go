// Package diagnose locates defects from tester responses — the step after
// pre-bond testing flags a die as bad. Given the pattern set that was
// applied and the set of patterns that failed on the tester, it ranks
// candidate faults by how well each one's simulated failure signature
// matches the observation (a classic pattern-granularity fault
// dictionary).
//
// In the 3D-IC setting this answers the question the paper's flow sets up:
// once a wrapped die fails pre-bond test, WHICH TSV (or which logic cone)
// is defective — the difference between discarding a die and repairing a
// process step.
package diagnose

import (
	"fmt"
	"math/bits"
	"sort"

	"wcm3d/internal/faults"
	"wcm3d/internal/faultsim"
	"wcm3d/internal/netlist"
)

// Syndrome is the tester observation: for each applied pattern, whether the
// die's response mismatched the good-machine response.
type Syndrome struct {
	// Failing[i] is true when pattern i failed.
	Failing []bool
}

// FailCount returns the number of failing patterns.
func (s *Syndrome) FailCount() int {
	c := 0
	for _, f := range s.Failing {
		if f {
			c++
		}
	}
	return c
}

// Candidate is one scored explanation of the syndrome.
type Candidate struct {
	// Fault is the candidate defect.
	Fault faults.Fault
	// Matched counts failing patterns the fault predicts.
	Matched int
	// Missed counts failing patterns the fault does not predict.
	Missed int
	// Extra counts passing patterns the fault would have failed.
	Extra int
}

// Exact reports a perfect signature match.
func (c Candidate) Exact() bool { return c.Missed == 0 && c.Extra == 0 }

// Score orders candidates: exact matches first, then by fewest
// discrepancies, then by most matched.
func (c Candidate) score() (int, int) {
	return c.Missed + c.Extra, -c.Matched
}

// Locate simulates every candidate fault against the applied patterns and
// ranks them against the syndrome. Returns candidates sorted best-first;
// faults predicting no failing pattern at all are dropped.
func Locate(n *netlist.Netlist, patterns []faultsim.Pattern, syn *Syndrome, candidates []faults.Fault) ([]Candidate, error) {
	if len(syn.Failing) != len(patterns) {
		return nil, fmt.Errorf("diagnose: syndrome covers %d patterns, %d applied",
			len(syn.Failing), len(patterns))
	}
	// Observed failing set as bit words per 64-pattern block.
	observed := make([]uint64, (len(patterns)+63)/64)
	for i, f := range syn.Failing {
		if f {
			observed[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	scored := make([]Candidate, len(candidates))
	predicts := make([]bool, len(candidates))
	err := signatures(n, patterns, candidates, func(i, b int, det uint64) {
		c := &scored[i]
		obs := observed[b]
		c.Matched += bits.OnesCount64(det & obs)
		c.Missed += bits.OnesCount64(obs &^ det)
		c.Extra += bits.OnesCount64(det &^ obs)
		predicts[i] = predicts[i] || det != 0
	})
	if err != nil {
		return nil, err
	}
	var out []Candidate
	for i, f := range candidates {
		if predicts[i] {
			scored[i].Fault = f
			out = append(out, scored[i])
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		di, mi := out[i].score()
		dj, mj := out[j].score()
		if di != dj {
			return di < dj
		}
		return mi < mj
	})
	return out, nil
}

// Simulate plays the tester for a die carrying fault f: it returns which
// of the patterns fail.
func Simulate(n *netlist.Netlist, patterns []faultsim.Pattern, f faults.Fault) (*Syndrome, error) {
	syn := &Syndrome{Failing: make([]bool, len(patterns))}
	err := signatures(n, patterns, []faults.Fault{f}, func(_, b int, det uint64) {
		for ; det != 0; det &= det - 1 {
			syn.Failing[b*64+bits.TrailingZeros64(det)] = true
		}
	})
	if err != nil {
		return nil, err
	}
	return syn, nil
}

// signatures simulates every fault against the patterns and hands visit
// each fault's detection word per 64-pattern block: bit k of fault i's
// word for block b is set when pattern 64b+k detects it. Blocks are the
// outer loop, so each block's good machine is simulated once.
func signatures(n *netlist.Netlist, patterns []faultsim.Pattern, fs []faults.Fault, visit func(i, b int, det uint64)) error {
	sim := faultsim.New(n)
	eng := sim.NewEngine()
	for lo := 0; lo < len(patterns); lo += 64 {
		good, err := sim.GoodSim(patterns[lo:min(lo+64, len(patterns))])
		if err != nil {
			return err
		}
		for i, f := range fs {
			visit(i, lo/64, eng.Detects(f, good))
		}
	}
	return nil
}

// TSVSuspects maps a ranked candidate list onto the die's TSVs: a fault
// inside an inbound TSV's fan-out cone (or whose effect feeds an outbound
// TSV port's fan-in cone) implicates that TSV's wrapper path. Returns TSV
// names in implication order, deduplicated.
func TSVSuspects(n *netlist.Netlist, ranked []Candidate, maxFaults int) []string {
	if maxFaults <= 0 || maxFaults > len(ranked) {
		maxFaults = len(ranked)
	}
	var cones []*netlist.BitSet
	var names []string
	for _, t := range n.InboundTSVs() {
		cones = append(cones, n.FanoutCone(t))
		names = append(names, n.NameOf(t))
	}
	for _, oi := range n.OutboundTSVs() {
		cones = append(cones, n.FaninCone(n.Outputs[oi].Signal))
		names = append(names, n.Outputs[oi].Name)
	}
	seen := map[string]bool{}
	var out []string
	for _, c := range ranked[:maxFaults] {
		for i, cone := range cones {
			if cone.Has(c.Fault.Gate) && !seen[names[i]] {
				seen[names[i]] = true
				out = append(out, names[i])
			}
		}
	}
	return out
}

package atpg

import (
	"math/rand"

	"wcm3d/internal/faults"
	"wcm3d/internal/faultsim"
	"wcm3d/internal/netlist"
)

// PatternPair is a two-vector transition test: V1 launches the initial
// value, V2 captures the (possibly slow) final value. Under enhanced scan
// both vectors are applied through the scan chain independently.
type PatternPair struct {
	V1, V2 faultsim.Pattern
}

// TransitionResult is the outcome of transition-fault pattern generation.
type TransitionResult struct {
	// Pairs is the final set of two-vector tests.
	Pairs []PatternPair
	Counts
}

// PatternCount counts applied vectors: two per pair, matching how
// commercial flows report transition pattern counts.
func (r *TransitionResult) PatternCount() int { return 2 * len(r.Pairs) }

// RunTransition generates a transition-delay test set.
func RunTransition(n *netlist.Netlist, list []faults.TransitionFault, opts Options) (*TransitionResult, error) {
	opts.Seed ^= 0x7472616e73 // decorrelate from the stuck-at run
	r, err := run(n, list, opts, transition)
	if err != nil {
		return nil, err
	}
	res := &TransitionResult{Counts: r.Counts}
	for i, v1 := range r.vectors[0] {
		res.Pairs = append(res.Pairs, PatternPair{V1: v1, V2: r.vectors[1][i]})
	}
	return res, nil
}

var transition = faultModel[faults.TransitionFault]{
	vectors: 2,
	// Test k detects the fault when V1[k] proves the initial value at the
	// site and V2[k] detects the equivalent stuck-at.
	detect: func(eng *faultsim.Engine, f faults.TransitionFault, good []*faultsim.Block) uint64 {
		det := eng.Detects(f.Equivalent(), good[1])
		if det == 0 {
			return 0
		}
		g1 := good[0]
		var initMask uint64
		for k := 0; k < g1.NPat; k++ {
			if v, known := g1.Val(f.Gate, k); known && v == (f.InitialValue() == 1) {
				initMask |= 1 << uint(k)
			}
		}
		return det & initMask
	},
	// V2 via PODEM on the equivalent stuck-at fault, V1 via justification
	// of the initial value.
	generate: func(pd *podem, f faults.TransitionFault, rng *rand.Rand, test []faultsim.Pattern) (out genOutcome) {
		if test[1], out = pd.generate(f.Equivalent(), rng); out != genFound {
			return out
		}
		test[0], out = pd.justifyVector(f.Gate, FromBool(f.InitialValue() == 1), rng)
		return out
	},
}

package atpg

import (
	"fmt"
	"math/rand"

	"wcm3d/internal/faults"
	"wcm3d/internal/faultsim"
	"wcm3d/internal/netlist"
)

// Options tunes the pattern-generation flow. The zero value gets sensible
// defaults.
type Options struct {
	// Seed drives every random choice; equal seeds reproduce runs.
	Seed int64
	// MaxRandomBlocks bounds the random phase (64 patterns per block).
	// Default 32.
	MaxRandomBlocks int
	// MinNewDetects stops the random phase once a block detects fewer
	// new faults than this. Default 3.
	MinNewDetects int
	// MaxBacktracks is the PODEM budget per fault. Default 60.
	MaxBacktracks int
	// MaxDeterministic caps how many faults the PODEM phase targets
	// (0 = unlimited). Reduced-effort runs use it to bound worst-case
	// runtime on large dies; untargeted faults simply stay undetected.
	MaxDeterministic int
	// Compact enables reverse-order pattern compaction. Default on via
	// DisableCompaction.
	DisableCompaction bool
}

func (o Options) withDefaults() Options {
	if o.MaxRandomBlocks == 0 {
		o.MaxRandomBlocks = 32
	}
	if o.MinNewDetects == 0 {
		o.MinNewDetects = 3
	}
	if o.MaxBacktracks == 0 {
		o.MaxBacktracks = 60
	}
	return o
}

// Result is the outcome of a pattern-generation run.
type Result struct {
	// Patterns is the final (compacted) test set.
	Patterns []faultsim.Pattern
	// TotalFaults, Detected, Untestable and Aborted partition the fault
	// list (Detected + Untestable + Aborted + undetected-but-unproven =
	// TotalFaults).
	TotalFaults int
	Detected    int
	Untestable  int
	Aborted     int
	// RandomDetected counts faults the random phase caught.
	RandomDetected int
}

// Coverage is the raw fault coverage: detected / total.
func (r *Result) Coverage() float64 {
	if r.TotalFaults == 0 {
		return 1
	}
	return float64(r.Detected) / float64(r.TotalFaults)
}

// TestCoverage is detected / (total - proven untestable) — the metric
// commercial ATPG tools headline, and the one the paper's coverage tables
// correspond to (redundant faults are excluded from the denominator).
func (r *Result) TestCoverage() float64 {
	den := r.TotalFaults - r.Untestable
	if den <= 0 {
		return 1
	}
	return float64(r.Detected) / float64(den)
}

// PatternCount returns the number of test patterns in the final set.
func (r *Result) PatternCount() int { return len(r.Patterns) }

// Run generates a stuck-at test set for the fault list on the die.
func Run(n *netlist.Netlist, list []faults.Fault, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	sim := faultsim.New(n)
	if sim.NumSources() == 0 {
		return nil, fmt.Errorf("atpg: die %q has no controllable sources", n.Name)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	res := &Result{TotalFaults: len(list)}

	detected := make([]bool, len(list))
	eng := sim.NewEngine()
	var patterns []faultsim.Pattern

	// Phase 1: random patterns with fault dropping. Keep only patterns
	// that first-detect something.
	for blk := 0; blk < opts.MaxRandomBlocks; blk++ {
		block := make([]faultsim.Pattern, 64)
		for i := range block {
			block[i] = sim.RandomPattern(rng)
		}
		good, err := sim.GoodSim(block)
		if err != nil {
			return nil, err
		}
		newDetects := 0
		useful := make([]bool, 64)
		for fi := range list {
			if detected[fi] {
				continue
			}
			det := eng.Detects(list[fi], good)
			if det == 0 {
				continue
			}
			first := firstBit(det)
			useful[first] = true
			detected[fi] = true
			newDetects++
		}
		for i, u := range useful {
			if u {
				patterns = append(patterns, block[i])
			}
		}
		res.RandomDetected += newDetects
		if newDetects < opts.MinNewDetects {
			break
		}
	}

	// Phase 2: PODEM for the survivors, fault-simulating each new
	// pattern against the remaining faults.
	sc := computeScoap(n,
		func(s netlist.SignalID) bool { _, ok := sim.SourceIndex(s); return ok },
		sim.Observed)
	pd := newPodem(n, sim, sc, opts.MaxBacktracks)
	var pending []faultsim.Pattern // generated but not yet cross-simulated
	flushPending := func() error {
		if len(pending) == 0 {
			return nil
		}
		good, err := sim.GoodSim(pending)
		if err != nil {
			return err
		}
		for fi := range list {
			if detected[fi] {
				continue
			}
			if eng.Detects(list[fi], good) != 0 {
				detected[fi] = true
			}
		}
		patterns = append(patterns, pending...)
		pending = pending[:0]
		return nil
	}
	targeted := 0
	for fi := range list {
		if detected[fi] {
			continue
		}
		if opts.MaxDeterministic > 0 && targeted >= opts.MaxDeterministic {
			break
		}
		targeted++
		pat, outcome := pd.generate(list[fi], rng)
		switch outcome {
		case genFound:
			detected[fi] = true
			pending = append(pending, pat)
			if len(pending) == 64 {
				if err := flushPending(); err != nil {
					return nil, err
				}
			}
		case genUntestable:
			res.Untestable++
		case genAborted:
			res.Aborted++
		}
	}
	if err := flushPending(); err != nil {
		return nil, err
	}

	for _, d := range detected {
		if d {
			res.Detected++
		}
	}

	// Phase 3: reverse-order compaction — late deterministic patterns
	// tend to cover the early random ones.
	if !opts.DisableCompaction && len(patterns) > 1 {
		reversed := make([]faultsim.Pattern, len(patterns))
		for i, p := range patterns {
			reversed[len(patterns)-1-i] = p
		}
		camp, err := sim.RunCampaign(reversed, list)
		if err != nil {
			return nil, err
		}
		var kept []faultsim.Pattern
		for i, u := range camp.UsefulPattern {
			if u {
				kept = append(kept, reversed[i])
			}
		}
		if len(kept) > 0 {
			patterns = kept
		}
		// The campaign independently verified detection of every fault
		// by the final pattern set; prefer it over PODEM's claims.
		res.Detected = camp.NumDetected
	}
	res.Patterns = patterns
	return res, nil
}

func firstBit(w uint64) int {
	for i := 0; i < 64; i++ {
		if w&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

package atpg

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

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
	// DisableCompaction skips reverse-order pattern compaction, which
	// otherwise runs.
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

// Reduced is the reduced-effort configuration, for sweeps and benchmark
// loops where per-run cost matters more than the last percent of coverage.
// Counter-intuitively it keeps the random phase GENEROUS (random patterns
// are cheap and every extra detection is one fewer PODEM target) and
// starves only PODEM.
func Reduced(seed int64) Options {
	return Options{Seed: seed, MaxRandomBlocks: 48, MaxBacktracks: 6, MinNewDetects: 1, MaxDeterministic: 3000}
}

// Counts partitions a fault list: Detected + Untestable + Aborted +
// undetected-but-unproven = TotalFaults.
type Counts struct {
	TotalFaults int
	Detected    int
	Untestable  int
	Aborted     int
}

// Coverage is the raw fault coverage: detected / total.
func (c Counts) Coverage() float64 {
	if c.TotalFaults == 0 {
		return 1
	}
	return float64(c.Detected) / float64(c.TotalFaults)
}

// TestCoverage is detected / (total - proven untestable) — the metric
// commercial ATPG tools headline, and the one the paper's coverage tables
// correspond to (redundant faults are excluded from the denominator).
func (c Counts) TestCoverage() float64 {
	den := c.TotalFaults - c.Untestable
	if den <= 0 {
		return 1
	}
	return float64(c.Detected) / float64(den)
}

// Result is the outcome of a stuck-at pattern-generation run.
type Result struct {
	// Patterns is the final (compacted) test set.
	Patterns []faultsim.Pattern
	Counts
	// RandomDetected counts faults the random phase caught.
	RandomDetected int
}

// PatternCount returns the number of test patterns in the final set.
func (r *Result) PatternCount() int { return len(r.Patterns) }

// Run generates a stuck-at test set for the fault list on the die.
func Run(n *netlist.Netlist, list []faults.Fault, opts Options) (*Result, error) {
	r, err := run(n, list, opts, stuckAt)
	if err != nil {
		return nil, err
	}
	return &Result{Patterns: r.vectors[0], Counts: r.Counts, RandomDetected: r.randomDetected}, nil
}

// faultModel is what the driver needs to know about one fault model.
type faultModel[F any] struct {
	// vectors is how many vectors one test applies.
	vectors int
	// detect returns the word of tests that detect f, given one
	// good-machine block per vector position.
	detect func(eng *faultsim.Engine, f F, good []*faultsim.Block) uint64
	// generate builds one test for f with PODEM, one vector per position
	// of test.
	generate func(pd *podem, f F, rng *rand.Rand, test []faultsim.Pattern) genOutcome
}

var stuckAt = faultModel[faults.Fault]{
	vectors: 1,
	detect: func(eng *faultsim.Engine, f faults.Fault, good []*faultsim.Block) uint64 {
		return eng.Detects(f, good[0])
	},
	generate: func(pd *podem, f faults.Fault, rng *rand.Rand, test []faultsim.Pattern) (out genOutcome) {
		test[0], out = pd.generate(f, rng)
		return out
	},
}

// flowResult is the driver's outcome.
type flowResult struct {
	Counts
	// vectors[k][i] is vector k of final test i.
	vectors        [][]faultsim.Pattern
	randomDetected int
}

// run is the pattern-generation flow shared by every fault model: random
// tests with fault dropping, PODEM for the survivors, then reverse-order
// compaction.
func run[F any](n *netlist.Netlist, list []F, opts Options, m faultModel[F]) (*flowResult, error) {
	opts = opts.withDefaults()
	sim := faultsim.New(n)
	if sim.NumSources() == 0 {
		return nil, fmt.Errorf("atpg: die %q has no controllable sources", n.Name)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	res := &flowResult{Counts: Counts{TotalFaults: len(list)}, vectors: make([][]faultsim.Pattern, m.vectors)}
	eng := sim.NewEngine()

	// grade simulates a block of up to 64 tests (block[k] holds vector k
	// of each) against the faults not yet marked in detected, marks the
	// ones it detects, and flags each fault's first detector as useful.
	grade := func(block [][]faultsim.Pattern, detected []bool) (useful [64]bool, newDetects int, err error) {
		good := make([]*faultsim.Block, len(block))
		for k, vecs := range block {
			if good[k], err = sim.GoodSim(vecs); err != nil {
				return useful, 0, err
			}
		}
		for fi := range list {
			if detected[fi] {
				continue
			}
			if det := m.detect(eng, list[fi], good); det != 0 {
				useful[bits.TrailingZeros64(det)] = true
				detected[fi] = true
				newDetects++
			}
		}
		return useful, newDetects, nil
	}
	keepUseful := func(dst, block [][]faultsim.Pattern, useful [64]bool) {
		for i, u := range useful {
			if u {
				for k := range dst {
					dst[k] = append(dst[k], block[k][i])
				}
			}
		}
	}

	// Phase 1: random tests with fault dropping. Keep only tests that
	// first-detect something.
	detected := make([]bool, len(list))
	for blk := 0; blk < opts.MaxRandomBlocks; blk++ {
		block := make([][]faultsim.Pattern, m.vectors)
		for k := range block {
			block[k] = make([]faultsim.Pattern, 64)
		}
		for i := 0; i < 64; i++ {
			for k := range block {
				block[k][i] = sim.RandomPattern(rng)
			}
		}
		useful, newDetects, err := grade(block, detected)
		if err != nil {
			return nil, err
		}
		keepUseful(res.vectors, block, useful)
		res.randomDetected += newDetects
		if newDetects < opts.MinNewDetects {
			break
		}
	}

	// Phase 2: PODEM for the survivors, fault-simulating each 64 new
	// tests against the remaining faults.
	sc := computeScoap(n,
		func(s netlist.SignalID) bool { _, ok := sim.SourceIndex(s); return ok },
		sim.Observed)
	pd := newPodem(n, sim, sc, opts.MaxBacktracks)
	pending := make([][]faultsim.Pattern, m.vectors) // generated but not yet cross-simulated
	flush := func() error {
		if len(pending[0]) == 0 {
			return nil
		}
		if _, _, err := grade(pending, detected); err != nil {
			return err
		}
		for k := range pending {
			res.vectors[k] = append(res.vectors[k], pending[k]...)
			pending[k] = pending[k][:0]
		}
		return nil
	}
	test := make([]faultsim.Pattern, m.vectors)
	targeted := 0
	for fi := range list {
		if detected[fi] {
			continue
		}
		if opts.MaxDeterministic > 0 && targeted >= opts.MaxDeterministic {
			break
		}
		targeted++
		switch m.generate(pd, list[fi], rng, test) {
		case genFound:
			detected[fi] = true
			for k := range pending {
				pending[k] = append(pending[k], test[k])
			}
			if len(pending[0]) == 64 {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		case genUntestable:
			res.Untestable++
		case genAborted:
			res.Aborted++
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	for _, d := range detected {
		if d {
			res.Detected++
		}
	}

	// Phase 3: reverse-order compaction — late deterministic tests tend
	// to cover the early random ones. The first-detector pass re-grades
	// the whole set from scratch, so its count replaces PODEM's claims.
	nt := len(res.vectors[0])
	if opts.DisableCompaction || nt <= 1 {
		return res, nil
	}
	// Reverse copies, so that an empty kept set leaves the tests as they
	// were.
	reversed := make([][]faultsim.Pattern, m.vectors)
	for k, vecs := range res.vectors {
		reversed[k] = slices.Clone(vecs)
		slices.Reverse(reversed[k])
	}
	redetected := make([]bool, len(list))
	kept := make([][]faultsim.Pattern, m.vectors)
	res.Detected = 0
	for base := 0; base < nt; base += 64 {
		block := make([][]faultsim.Pattern, m.vectors)
		for k := range block {
			block[k] = reversed[k][base:min(base+64, nt)]
		}
		useful, newDetects, err := grade(block, redetected)
		if err != nil {
			return nil, err
		}
		keepUseful(kept, block, useful)
		res.Detected += newDetects
	}
	if len(kept[0]) > 0 {
		res.vectors = kept
	}
	return res, nil
}

// Package refine is the anytime improvement layer of the WCM flow: it takes
// the greedy heuristic's wrapper plan (paper Algorithm 2) plus the die's
// timing model and searches for a plan with fewer inserted wrapper cells
// under a hard wall-clock deadline. PR 4's exhaustive oracle proved the
// greedy partitioner optimal on only 135 of 200 tiny dies — every gap a
// clique merged so large that no disjoint-cone flip-flop could attach; this
// package exists to close those gaps on real dies, where the oracle cannot
// run.
//
// Three strategies implement one Refiner interface and race concurrently:
//
//   - local:  deterministic first-improvement descent — candidate-list
//     block merges, single-item relocations, and split-and-remerge kicks,
//     with a seeded perturb-and-descend restart schedule.
//   - anneal: simulated annealing over the same move set, driven by a
//     seeded RNG (bit-reproducible for a fixed seed and step budget),
//     reheated from its own best in restart segments.
//   - lns:    large-neighborhood destroy/repair — evict a cluster of
//     blocks, greedily repack, keep strict improvements.
//
// All three score moves with the incremental evaluator (eval.go): moves
// apply in place, targeted augmenting paths repair the flip-flop matching,
// and a journal reverts rejected trials — no per-trial clone or full
// rematch, which is what lets sweeps finish on b20-class dies inside the
// wall budget.
//
// The optimizer never self-certifies: every candidate that beats the
// incumbent is encoded as a scan.Assignment and must pass the independent
// referee internal/verify.Plan before it may become the new best. At the
// deadline the best verified plan wins; if nothing verified better, the
// greedy plan is returned unchanged — refinement can never make a plan
// worse. See docs/SOLVERS.md.
package refine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"wcm3d/internal/par"
	"wcm3d/internal/scan"
	"wcm3d/internal/sta"
	"wcm3d/internal/verify"
	"wcm3d/internal/wcm"
)

// DefaultBudget is the wall-clock deadline when Options.Budget is zero.
const DefaultBudget = 2 * time.Second

// defaultAnnealSteps is the annealer's step budget when Options.MaxSteps
// is zero — sized so tiny and mid-size dies finish the schedule well inside
// DefaultBudget.
const defaultAnnealSteps = 60000

// Options configures a refinement run.
type Options struct {
	// Budget bounds the wall time; zero means DefaultBudget. The
	// caller's context deadline always caps it regardless.
	Budget time.Duration
	// Seed drives the annealer's RNG. Plans are bit-reproducible for a
	// fixed (seed, step budget, strategy); the wall deadline can only
	// truncate a trajectory, never reorder it.
	Seed int64
	// MaxSteps bounds each strategy's search steps; zero picks
	// per-strategy defaults. With a generous Budget, fixed MaxSteps make
	// every strategy's outcome deterministic.
	MaxSteps int
	// Strategies selects which solvers race ("local", "anneal", "lns");
	// nil or empty runs all of them. Duplicate names collapse to the
	// first occurrence — two copies of a strategy would replay the same
	// deterministic trajectory on the same RNG stream.
	Strategies []string
	// Workers bounds the portfolio's concurrency; 0 means one worker per
	// strategy (capped by GOMAXPROCS via internal/par).
	Workers int
	// CandidateK bounds each block's merge-partner candidate list in the
	// scalable sweeps (local search, LNS cluster picking); 0 means
	// defaultCandidateK. Larger k explores more pairs per round, smaller
	// k finishes rounds faster on big dies.
	CandidateK int
	// Restarts caps the restart schedule: perturb-and-descend rounds for
	// local search, reheat segments for the annealer. 0 picks
	// per-strategy defaults (local restarts until two fruitless rounds,
	// anneal splits its budget into annealSegments segments).
	Restarts int
	// CrossCheck re-scores every applied incremental move against a
	// from-scratch rematch and panics on divergence — the debug mode for
	// the incremental evaluator; orders of magnitude slower.
	CrossCheck bool
}

// Config is the per-strategy slice of Options a Refiner receives.
type Config struct {
	// Seed drives any randomized decisions.
	Seed int64
	// MaxSteps bounds the strategy's search steps.
	MaxSteps int
	// CandidateK bounds merge-partner candidate lists (see Options).
	CandidateK int
	// Restarts caps the restart schedule (see Options).
	Restarts int
	// CrossCheck enables the evaluator's full-rematch debug audit.
	CrossCheck bool
}

// Refiner is one improvement strategy. Refine searches from start and
// calls emit with every solution that improves on its local best; emit
// reports whether the candidate was admitted (verified and better than the
// portfolio's global best), which strategies may use to bias their search
// but are free to ignore. Refine returns the steps actually executed and
// the context's error if the deadline cut the search short.
type Refiner interface {
	Name() string
	Refine(ctx context.Context, p *Problem, start *Solution, cfg Config, emit func(*Solution) bool) (steps int, err error)
}

// StrategyOutcome reports one strategy's run.
type StrategyOutcome struct {
	// Name identifies the strategy.
	Name string `json:"name"`
	// Steps counts search steps executed before return.
	Steps int `json:"steps"`
	// Proposed counts candidates the strategy emitted; Admitted counts
	// those that passed verification and improved the global best;
	// Rejected counts candidates the referee refused; Stale counts
	// candidates that verified but lost the admission race to an
	// equal-or-better plan another strategy certified first (they are
	// deliberately not Admitted, so an improvement is counted once).
	Proposed int `json:"proposed"`
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	Stale    int `json:"stale,omitempty"`
	// Deadline reports whether the wall clock cut the strategy short.
	Deadline bool `json:"deadline,omitempty"`
	// Err carries a strategy failure (the portfolio survives it).
	Err string `json:"err,omitempty"`
}

// Result is the outcome of a refinement run. Assignment is always a usable
// plan: the best verified improvement, or the greedy plan unchanged.
type Result struct {
	// Assignment is the winning plan.
	Assignment *scan.Assignment
	// AdditionalCells and ReusedFFs describe the winning plan.
	AdditionalCells int
	ReusedFFs       int
	// GreedyCells is the incumbent cost refinement started from.
	GreedyCells int
	// Improved reports whether a verified better plan was found;
	// CellsSaved is GreedyCells − AdditionalCells.
	Improved   bool
	CellsSaved int
	// Strategy names the solver that produced the winning plan ("" when
	// the greedy plan stood).
	Strategy string
	// Strategies reports every solver that ran.
	Strategies []StrategyOutcome
}

// strategyRegistry maps strategy names to their implementations. Tests may
// register temporary strategies (and must remove them again).
var strategyRegistry = map[string]Refiner{
	"local":  localSearch{},
	"anneal": annealer{},
	"lns":    lns{},
}

// defaultStrategyOrder fixes the portfolio's deterministic launch order
// when Options.Strategies is empty.
var defaultStrategyOrder = []string{"local", "anneal", "lns"}

// strategiesFor resolves the configured strategy names. Unknown names are
// an error naming the known set; duplicates collapse to the first
// occurrence — two copies of the same strategy would race identical
// deterministic trajectories over the same RNG seed stream and burn a
// worker for nothing.
func strategiesFor(names []string) ([]Refiner, error) {
	if len(names) == 0 {
		names = defaultStrategyOrder
	}
	seen := make(map[string]bool, len(names))
	var out []Refiner
	for _, name := range names {
		r, ok := strategyRegistry[name]
		if !ok {
			known := make([]string, 0, len(strategyRegistry))
			for k := range strategyRegistry {
				known = append(known, k)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("refine: unknown strategy %q (known: %s)",
				name, strings.Join(known, ", "))
		}
		if seen[name] {
			continue
		}
		seen[name] = true
		out = append(out, r)
	}
	return out, nil
}

// arbiter is the shared admission point: candidates race in from every
// strategy, and only a plan that (a) costs strictly fewer cells than the
// current best and (b) passes the independent verifier may take the lead.
type arbiter struct {
	p  *Problem
	th *wcm.Options

	// certifyFn lets tests intercept certification (e.g. to force the
	// stale race deterministically); nil means verify.Plan.
	certifyFn func(*scan.Assignment) bool

	mu        sync.Mutex
	bestCells int
	best      *scan.Assignment
	strategy  string
}

// offerVerdict classifies one candidate's fate at the arbiter.
type offerVerdict int

const (
	// offerNotBetter: no better than the global best at the pre-check —
	// not worth encoding or verifying.
	offerNotBetter offerVerdict = iota
	// offerRejected: the independent referee refused certification.
	offerRejected
	// offerStale: verified, but while verification ran another strategy
	// certified an equal-or-better plan. The candidate is dropped — NOT
	// admitted — so an equal-cost race can never count one improvement
	// twice.
	offerStale
	// offerAdmitted: verified and strictly better; now the global best.
	offerAdmitted
)

func (a *arbiter) certify(asn *scan.Assignment) bool {
	if a.certifyFn != nil {
		return a.certifyFn(asn)
	}
	vres, err := verify.Plan(a.p.in, asn, verify.Options{Thresholds: a.th})
	return err == nil && vres.OK()
}

// offer judges one candidate for one strategy. It is safe for concurrent
// use; verification runs outside the lock.
func (a *arbiter) offer(strategy string, s *Solution) offerVerdict {
	cells := s.cells(a.p)
	a.mu.Lock()
	lead := cells < a.bestCells
	a.mu.Unlock()
	if !lead {
		return offerNotBetter
	}
	asn := encode(a.p, s)
	if !a.certify(asn) {
		return offerRejected
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if cells >= a.bestCells {
		return offerStale // someone else got there first
	}
	a.bestCells = cells
	a.best = asn
	a.strategy = strategy
	return offerAdmitted
}

// Run races the solver portfolio over the greedy plan and returns the best
// verified plan found before the deadline — or the greedy plan unchanged.
// An already-expired context short-circuits: the greedy assignment comes
// back immediately, untouched. Run only returns an error for malformed
// inputs; search-side failures degrade to the greedy plan.
func Run(ctx context.Context, in wcm.Input, opts wcm.Options, greedy *wcm.Result, o Options) (*Result, error) {
	if greedy == nil || greedy.Assignment == nil {
		return nil, fmt.Errorf("refine: nil greedy plan")
	}
	eff := opts.WithDefaults()
	res := &Result{
		Assignment:      greedy.Assignment,
		AdditionalCells: greedy.AdditionalCells,
		ReusedFFs:       greedy.ReusedFFs,
		GreedyCells:     greedy.AdditionalCells,
	}
	if ctx.Err() != nil {
		return res, nil // expired before start: greedy plan, unchanged
	}
	refiners, err := strategiesFor(o.Strategies)
	if err != nil {
		return nil, err
	}
	budget := o.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}

	// The model's second phase prices against the timing the greedy
	// second phase saw: the analysis refreshed from greedy's first-phase
	// hardware. Candidates whose own first phase differs are re-derived
	// from scratch by the verifier at admission, so a mispriced edge can
	// cost a rejection but never an invalid plan.
	var second *sta.Result
	if in.RefreshTiming != nil {
		partial := &scan.Assignment{}
		firstInbound := len(greedy.Phases) > 0 && greedy.Phases[0].Inbound
		if firstInbound {
			partial.Control = greedy.Assignment.Control
		} else {
			partial.Observe = greedy.Assignment.Observe
		}
		second, err = in.RefreshTiming(partial)
		if err != nil {
			return res, nil // cannot price phase two: keep greedy
		}
	}
	model, err := wcm.BuildShareModel(in, eff, second)
	if err != nil {
		return nil, err
	}
	p, err := newProblem(in, eff, model, greedy)
	if err != nil {
		return nil, err
	}
	start, err := decodeGreedy(p, greedy)
	if err != nil {
		// The greedy plan does not fit the model (defensive: this
		// would be a model bug, not a caller error) — refuse to
		// search rather than risk a worse plan.
		return res, nil
	}

	// The deadline clock starts here, after the timing refresh and model
	// build: the budget funds the *search*, not the problem construction —
	// on b18/b20-class dies the STA refresh alone used to consume most of
	// a 2 s budget before any strategy ran a single step. The caller's own
	// context still caps the whole call, prep included.
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()

	arb := &arbiter{p: p, th: &eff, bestCells: greedy.AdditionalCells}
	outcomes := make([]StrategyOutcome, len(refiners))
	par.Do(par.Workers(o.Workers, len(refiners)), len(refiners), func(_, i int) {
		r := refiners[i]
		out := &outcomes[i]
		out.Name = r.Name()
		cfg := Config{
			Seed:       o.Seed,
			MaxSteps:   o.MaxSteps,
			CandidateK: o.CandidateK,
			Restarts:   o.Restarts,
			CrossCheck: o.CrossCheck,
		}
		if cfg.MaxSteps <= 0 {
			switch r.Name() {
			case "anneal":
				cfg.MaxSteps = defaultAnnealSteps
			default:
				// local and lns terminate through their fruitless cutoffs.
				cfg.MaxSteps = 1 << 30
			}
		}
		emit := func(s *Solution) bool {
			out.Proposed++
			switch arb.offer(r.Name(), s) {
			case offerAdmitted:
				out.Admitted++
				return true
			case offerRejected:
				out.Rejected++
			case offerStale:
				out.Stale++
			}
			return false
		}
		steps, err := r.Refine(ctx, p, start, cfg, emit)
		out.Steps = steps
		if err == context.DeadlineExceeded || err == context.Canceled {
			out.Deadline = true
		} else if err != nil {
			out.Err = err.Error()
		}
	})
	res.Strategies = outcomes

	arb.mu.Lock()
	best, bestCells, strategy := arb.best, arb.bestCells, arb.strategy
	arb.mu.Unlock()
	if best != nil && bestCells < res.GreedyCells {
		res.Assignment = best
		res.AdditionalCells = bestCells
		res.ReusedFFs = best.ReusedFFs()
		res.Improved = true
		res.CellsSaved = res.GreedyCells - bestCells
		res.Strategy = strategy
	}
	return res, nil
}

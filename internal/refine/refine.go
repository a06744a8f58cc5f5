// Package refine is the anytime improvement layer of the WCM flow: it takes
// the greedy heuristic's wrapper plan (paper Algorithm 2) plus the die's
// timing model and searches for a plan with fewer inserted wrapper cells
// under a hard wall-clock deadline. PR 4's exhaustive oracle proved the
// greedy partitioner optimal on only 135 of 200 tiny dies — every gap a
// clique merged so large that no disjoint-cone flip-flop could attach; this
// package exists to close those gaps on real dies, where the oracle cannot
// run.
//
// Three strategies implement one Refiner interface and run one after
// another on the caller's goroutine, each on a share of the wall budget:
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
// incumbent is encoded as a scan.Assignment, and the arbiter certifies the
// pending candidates best-first with the independent referee
// internal/verify.Plan whenever a strategy ends, a candidate reaches the
// lower bound, and before Run returns; the first that passes becomes the
// new best. If nothing verified better, the greedy plan is returned
// unchanged — refinement can never make a plan worse.
//
// Problem carries a capacity lower bound on the model's cells. Once a
// certified plan reaches it, the plan is optimal on the model: the running
// strategy ends and later strategies do not start. See docs/SOLVERS.md.
package refine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"wcm3d/internal/scan"
	"wcm3d/internal/sta"
	"wcm3d/internal/verify"
	"wcm3d/internal/wcm"
)

// DefaultBudget is the wall-clock deadline when Options.Budget is zero.
const DefaultBudget = 2 * time.Second

// Options configures a refinement run.
type Options struct {
	// Budget bounds the wall time; zero means DefaultBudget. The
	// caller's context deadline always caps it regardless.
	Budget time.Duration
	// Seed drives the strategies' RNGs. Plans are bit-reproducible for a
	// fixed (seed, step budget, strategy); the wall deadline can only
	// truncate a trajectory, never reorder it.
	Seed int64
	// MaxSteps bounds each strategy's search steps; zero leaves each
	// strategy its own default (the annealer's cooling schedule spans
	// defaultAnnealSteps; local and lns stop at their fruitless cutoffs).
	// With a generous Budget, fixed MaxSteps make every strategy's
	// outcome deterministic.
	MaxSteps int
	// Strategies selects which solvers run, in order ("lns", "local",
	// "anneal"); nil or empty runs all of them in defaultStrategyOrder.
	// Duplicate names collapse to the first occurrence — two copies of a
	// strategy would replay the same deterministic trajectory on the
	// same RNG stream.
	Strategies []string
	// CrossCheck re-scores every applied incremental move against a
	// from-scratch rematch and panics on divergence — the debug mode for
	// the incremental evaluator; orders of magnitude slower.
	CrossCheck bool
}

// unboundedSteps is the step cap of strategies that stop on their own
// fruitless cutoffs when Options.MaxSteps is zero.
const unboundedSteps = 1 << 30

// maxSteps returns the configured step budget, or def when it is zero.
func (o Options) maxSteps(def int) int {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return def
}

// Refiner is one improvement strategy. Refine searches from start and
// calls emit with every solution that improves on its local best; emit
// snapshots the solution, so the strategy may keep mutating it. Refine
// returns the steps actually executed and the context's error if the
// deadline (or the arbiter, once a plan reached the lower bound) cut the
// search short.
type Refiner interface {
	Name() string
	Refine(ctx context.Context, p *Problem, start *Solution, o Options, emit func(*Solution)) (steps int, err error)
}

// StrategyOutcome reports one strategy's run.
type StrategyOutcome struct {
	// Name identifies the strategy.
	Name string `json:"name"`
	// Steps counts search steps executed before return.
	Steps int `json:"steps"`
	// Proposed counts candidates the strategy emitted; Admitted counts
	// those that passed verification and took the lead; Rejected counts
	// candidates the referee refused. Certification is lazy (see
	// arbiter), so a candidate a cheaper one superseded before the next
	// certification point counts in neither.
	Proposed int `json:"proposed"`
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	// Deadline reports whether the wall clock cut the strategy short. A
	// strategy the lower bound ended is not cut short: it stopped because
	// nothing better exists on refine's model.
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
	// LowerBound is the capacity bound on refine's model: no plan of the
	// model costs fewer cells, so AdditionalCells − LowerBound bounds how
	// far the plan is from the model's optimum, and a plan at the bound
	// is optimal on it. The model prices phase two against the timing
	// of greedy's phase-one hardware, so the bound holds for that model
	// only. Zero (trivially true) when refinement never built the model.
	LowerBound int
	// Strategies reports every solver that started; strategies the
	// lower bound made unnecessary do not appear.
	Strategies []StrategyOutcome
}

// strategyRegistry maps strategy names to their implementations. Tests may
// register temporary strategies (and must remove them again).
var strategyRegistry = map[string]Refiner{
	"local":  localSearch{},
	"anneal": annealer{},
	"lns":    lns{},
}

// defaultStrategyOrder fixes the portfolio's run order when
// Options.Strategies is empty. lns goes first: it stops at its fruitless
// cutoff and hands the unused share on, and its end-of-run certifications
// on large dies then land early instead of past the deadline.
var defaultStrategyOrder = []string{"lns", "local", "anneal"}

// strategiesFor resolves the configured strategy names. Unknown names are
// an error naming the known set; duplicates collapse to the first
// occurrence — two copies of the same strategy would replay identical
// deterministic trajectories over the same RNG seed stream and burn a
// budget share for nothing.
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

// arbiter is the shared admission point. Candidates arrive from every
// strategy in turn; one that costs strictly fewer cells than the best
// certified or pending plan joins the pending list uncertified. settle
// certifies the pending list best-first with the independent verifier, and
// the first candidate that passes takes the lead — every returned plan is
// certified, but only the candidates that could be returned are paid for.
// The outcome differs from certifying every candidate on arrival only when
// a candidate is rejected: a candidate that arrived later than the
// rejected one without beating it was dropped on arrival, where eager
// certification would have tried it.
type arbiter struct {
	p  *Problem
	th *wcm.Options

	// certifyFn lets tests intercept certification; nil means
	// verify.Plan.
	certifyFn func(*scan.Assignment) bool

	bestCells int
	best      *scan.Assignment
	strategy  string

	// pending holds uncertified candidates in arrival order, each
	// strictly cheaper than the one before it and than best.
	pending []candidate
}

// candidate is one uncertified plan and the outcome row of the strategy
// that proposed it.
type candidate struct {
	cells int
	asn   *scan.Assignment
	out   *StrategyOutcome
}

func (a *arbiter) certify(asn *scan.Assignment) bool {
	if a.certifyFn != nil {
		return a.certifyFn(asn)
	}
	vres, err := verify.Plan(a.p.in, asn, verify.Options{Thresholds: a.th})
	return err == nil && vres.OK()
}

// offer records one candidate from the strategy reporting into out. A
// candidate at the lower bound is settled at once, so the search can stop
// as soon as it is certified.
func (a *arbiter) offer(out *StrategyOutcome, s *Solution) {
	out.Proposed++
	cells := s.cells(a.p)
	floor := a.bestCells
	if n := len(a.pending); n > 0 {
		floor = a.pending[n-1].cells
	}
	if cells >= floor {
		return
	}
	a.pending = append(a.pending, candidate{cells: cells, asn: encode(a.p, s), out: out})
	if cells <= a.p.lowerBound {
		a.settle()
	}
}

// settle certifies the pending candidates best-first. The first that
// passes takes the lead; the rest are worse and are dropped with it.
func (a *arbiter) settle() {
	for i := len(a.pending) - 1; i >= 0; i-- {
		c := a.pending[i]
		if a.certify(c.asn) {
			c.out.Admitted++
			a.best, a.bestCells, a.strategy = c.asn, c.cells, c.out.Name
			break
		}
		c.out.Rejected++
	}
	clear(a.pending)
	a.pending = a.pending[:0]
}

// atBound reports whether the certified incumbent is provably optimal on
// the model.
func (a *arbiter) atBound() bool { return a.bestCells <= a.p.lowerBound }

// Run runs the solver portfolio over the greedy plan, one strategy after
// another, and returns the best verified plan found before the deadline or
// the lower bound — or the greedy plan unchanged.
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
	p, start, err := newSearch(in, eff, greedy)
	if err != nil {
		return nil, err
	}
	if start == nil {
		return res, nil // the model cannot carry the greedy plan: keep it
	}

	// The deadline clock starts here, after the timing refresh and model
	// build: the budget funds the *search*, not the problem construction —
	// on b18/b20-class dies the STA refresh alone used to consume most of
	// a 2 s budget before any strategy ran a single step. The caller's own
	// context still caps the whole call, prep included.
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()

	res.LowerBound = p.lowerBound
	arb := &arbiter{p: p, th: &eff, bestCells: greedy.AdditionalCells}
	res.Strategies = arb.run(ctx, start, refiners, o)
	if arb.best != nil && arb.bestCells < res.GreedyCells {
		res.Assignment = arb.best
		res.AdditionalCells = arb.bestCells
		res.ReusedFFs = arb.best.ReusedFFs()
		res.Improved = true
		res.CellsSaved = res.GreedyCells - arb.bestCells
		res.Strategy = arb.strategy
	}
	return res, nil
}

// newSearch builds the search over the greedy plan: the share model, its
// Problem and the decoded greedy start. It returns an error only for
// malformed inputs, and a nil start when the greedy plan must stand
// unsearched (phase two cannot be priced, or the plan does not fit the
// model).
func newSearch(in wcm.Input, eff wcm.Options, greedy *wcm.Result) (*Problem, *Solution, error) {
	// The model's second phase prices against the timing the greedy
	// second phase saw: the analysis refreshed from greedy's first-phase
	// hardware. Candidates whose own first phase differs are re-derived
	// from scratch by the verifier at certification, so a mispriced edge
	// can cost a rejection but never an invalid plan.
	var second *sta.Result
	if in.RefreshTiming != nil {
		partial := &scan.Assignment{}
		firstInbound := len(greedy.Phases) > 0 && greedy.Phases[0].Inbound
		if firstInbound {
			partial.Control = greedy.Assignment.Control
		} else {
			partial.Observe = greedy.Assignment.Observe
		}
		var err error
		if second, err = in.RefreshTiming(partial); err != nil {
			return nil, nil, nil // cannot price phase two: keep greedy
		}
	}
	model, err := wcm.BuildShareModel(in, eff, second)
	if err != nil {
		return nil, nil, err
	}
	p, err := newProblem(in, eff, model, greedy)
	if err != nil {
		return nil, nil, err
	}
	// A decode failure would be a model bug, not a caller error: refuse
	// to search rather than risk a worse plan.
	start, _ := decodeGreedy(p, greedy)
	return p, start, nil
}

// run drives the strategies one after another until the context expires or
// the certified incumbent reaches the lower bound, and returns the outcome
// of every strategy that started.
func (a *arbiter) run(ctx context.Context, start *Solution, refiners []Refiner, o Options) []StrategyOutcome {
	deadline, _ := ctx.Deadline()
	// Outcome rows are appended as strategies start; the capacity keeps
	// the pending candidates' row pointers valid.
	outs := make([]StrategyOutcome, 0, len(refiners))
	for i, r := range refiners {
		if a.atBound() {
			break // the incumbent is optimal on the model
		}
		outs = append(outs, StrategyOutcome{Name: r.Name()})
		out := &outs[i]
		// Strategy i of n gets an even split of the time still left, so
		// whatever an earlier strategy leaves unused funds the later ones.
		share := time.Until(deadline) / time.Duration(len(refiners)-i)
		sctx, scancel := context.WithTimeout(ctx, share)
		emit := func(s *Solution) {
			a.offer(out, s)
			if a.atBound() {
				scancel()
			}
		}
		steps, err := r.Refine(sctx, a.p, start, o, emit)
		scancel()
		a.settle()
		out.Steps = steps
		switch {
		case err == context.DeadlineExceeded || err == context.Canceled:
			out.Deadline = !a.atBound()
		case err != nil:
			out.Err = err.Error()
		}
	}
	return outs
}

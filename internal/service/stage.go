package service

import (
	"context"
	"fmt"
	"time"

	"wcm3d"
)

// settings parses the request's method, timing and ATPG-budget spellings,
// defaulting to ours, tight and full; the budget is seeded with r.Seed.
func (r JobRequest) settings() (wcm3d.Method, wcm3d.TimingMode, wcm3d.ATPGBudget, error) {
	m := r.Method
	if m == "" {
		m = "ours"
	}
	method, err := wcm3d.ParseMethod(m)
	if err != nil {
		return 0, 0, wcm3d.ATPGBudget{}, err
	}
	tm := r.Timing
	if tm == "" {
		tm = "tight"
	}
	mode, err := wcm3d.ParseTimingMode(tm)
	if err != nil {
		return 0, 0, wcm3d.ATPGBudget{}, err
	}
	budget, err := wcm3d.ParseBudget(r.Budget, r.Seed)
	if err != nil {
		return 0, 0, wcm3d.ATPGBudget{}, err
	}
	return method, mode, budget, nil
}

// MinRefineBudget is the smallest portfolio budget worth starting: below
// it the solvers cannot finish a meaningful sweep even on a mid-size die,
// so the refine stage skips explicitly (RefineReport.Skipped, the
// refine.skipped counter) instead of pretending to search.
const MinRefineBudget = 50 * time.Millisecond

// refineFunding computes the refine stage's budget — half the job's
// remaining clamped deadline — and whether it clears MinRefineBudget.
// Without a deadline the portfolio's default budget stands.
func refineFunding(ctx context.Context) (time.Duration, bool) {
	dl, ok := ctx.Deadline()
	if !ok {
		return wcm3d.DefaultRefineBudget, true
	}
	funded := time.Until(dl) / 2
	if funded < MinRefineBudget {
		if funded < 0 {
			funded = 0
		}
		return funded, false
	}
	return funded, true
}

// RunDie runs a prepared die through a job's per-die stages: minimize,
// refine (req.Refine), report, timing signoff, verify (req.Verify), and
// stuck-at ATPG with the 4-chain test-cycle estimate (req.ATPG). ctx is
// checked between stages, so cancellation and deadlines take effect at
// stage boundaries. It is all of a wcmd job after die preparation and all
// of cmd/wcmflow after loading the die, which is why the two report alike.
// The report describes the die under name and req.Seed. Each stage records
// its latency in m whatever the outcome; a nil m records nothing.
func RunDie(ctx context.Context, req JobRequest, name string, die *wcm3d.Die, m *Metrics) (*Report, error) {
	if m == nil {
		m = new(Metrics)
	}
	method, mode, budget, err := req.settings()
	if err != nil {
		return nil, err
	}

	start := time.Now()
	res, err := wcm3d.Minimize(die, method, mode)
	m.ObserveOutcome(StageMinimize, time.Since(start), err)
	if err != nil {
		return nil, fmt.Errorf("minimize: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var refineRep *RefineReport
	if req.Refine && res.Options.Order != 0 {
		// Half the job's remaining deadline goes to the portfolio (the
		// signoff/verify/ATPG stages still need their share); a longer
		// timeout_ms therefore buys a deeper search. Methods without a
		// threshold contract (li, fullwrap) have no sharing model to
		// refine and skip the stage. A job that queued long (or asked
		// for a small timeout_ms) can arrive here with almost nothing
		// left; below MinRefineBudget the stage skips explicitly and
		// says so rather than run a search that cannot finish.
		funded, ok := refineFunding(ctx)
		if !ok {
			m.RefineSkipped.Add(1)
			refineRep = &RefineReport{
				Skipped:         true,
				FundedMS:        funded.Milliseconds(),
				GreedyCells:     res.AdditionalCells,
				AdditionalCells: res.AdditionalCells,
				ReusedFFs:       res.ReusedFFs,
				Gap:             res.AdditionalCells,
			}
		} else {
			start = time.Now()
			ro := wcm3d.RefineOptions{Seed: req.Seed, Budget: funded}
			rr, err := wcm3d.Refine(ctx, die, res.Options, res, ro)
			m.ObserveOutcome(StageRefine, time.Since(start), err)
			if err != nil {
				return nil, fmt.Errorf("refine: %w", err)
			}
			if rr.Improved {
				res.Assignment = rr.Assignment
				res.AdditionalCells = rr.AdditionalCells
				res.ReusedFFs = rr.ReusedFFs
				m.RefineImproved.Add(1)
				m.RefineCellsSaved.Add(int64(rr.CellsSaved))
			}
			refineRep = EncodeRefine(rr)
			refineRep.FundedMS = funded.Milliseconds()
		}
	}
	rep := EncodeResult(DescribeDie(name, req.Seed, die), method, mode, res, die.Lib)
	rep.Refine = refineRep
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	start = time.Now()
	viol, wns, err := wcm3d.CheckTiming(die, res.Assignment)
	m.ObserveOutcome(StageSignoff, time.Since(start), err)
	if err != nil {
		return nil, fmt.Errorf("signoff: %w", err)
	}
	rep.SetSignoff(viol, wns)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if req.Verify {
		start = time.Now()
		vres, err := wcm3d.VerifyPlan(die, res, wcm3d.VerifyOptions{})
		m.ObserveOutcome(StageVerify, time.Since(start), err)
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		rep.Verify = EncodeVerify(vres)
		if !vres.OK() {
			m.VerifyFailures.Add(1)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	if req.ATPG {
		start = time.Now()
		tb, err := wcm3d.EvaluateStuckAt(die, res.Assignment, budget)
		if err != nil {
			m.ObserveOutcome(StageATPG, time.Since(start), err)
			return nil, fmt.Errorf("atpg: %w", err)
		}
		chains, err := wcm3d.BuildScanChains(die, res.Assignment, 4)
		m.ObserveOutcome(StageATPG, time.Since(start), err)
		if err != nil {
			return nil, fmt.Errorf("scan chains: %w", err)
		}
		rep.SetStuckAt(tb, chains.TestCycles(tb.Patterns))
	}
	return rep, nil
}

// StackDies is the per-die half of the stack stage shared by
// POST /v1/schedules and cmd/schedule: it takes each of the stack's n dies
// and its name from die(i), wraps it with method under mode, and grades
// the plan with stuck-at ATPG for its pattern count. The result feeds
// EncodeSchedule. ctx is checked after every die.
func StackDies(ctx context.Context, n int, die func(i int) (string, *wcm3d.Die, error), method wcm3d.Method, mode wcm3d.TimingMode, budget wcm3d.ATPGBudget) ([]wcm3d.StackDie, error) {
	stack := make([]wcm3d.StackDie, n)
	for i := range stack {
		name, d, err := die(i)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := wcm3d.Minimize(d, method, mode)
		if err != nil {
			return nil, fmt.Errorf("minimize %s: %w", name, err)
		}
		tb, err := wcm3d.EvaluateStuckAt(d, res.Assignment, budget)
		if err != nil {
			return nil, fmt.Errorf("atpg %s: %w", name, err)
		}
		stack[i] = wcm3d.StackDie{Name: name, Die: d, Assignment: res.Assignment, Patterns: tb.Patterns}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return stack, nil
}

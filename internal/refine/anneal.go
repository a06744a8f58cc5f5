package refine

import (
	"context"
	"math"
	"math/rand"
)

// annealer is the stochastic strategy: Metropolis acceptance over the same
// move set as local search (merge, relocate, split one member out), scored
// by the incremental evaluator — accepted moves commit the journal,
// rejected ones revert through it. The restart schedule splits the step
// budget into reheat segments: each segment restarts from the strategy's
// own best solution with a fresh RNG stream (Seed + segment·stride) and a
// reheated temperature, so a trajectory that wandered off cannot strand
// the rest of the budget. A fixed (seed, step budget) replays the exact
// same walk — the wall-clock deadline can only truncate it.
type annealer struct{}

func (annealer) Name() string { return "anneal" }

// Cooling endpoints: moves cost at most a few cells, so temperatures are
// calibrated to unit deltas — ~37% uphill acceptance at the start of a
// segment, effectively greedy at its end.
const (
	annealTStart = 1.0
	annealTEnd   = 0.02
	// annealSegments is the reheat count of the restart schedule.
	annealSegments = 4
	// defaultAnnealSteps is the step budget the cooling schedule spans
	// when Options.MaxSteps is zero — sized so tiny and mid-size dies
	// finish the schedule well inside DefaultBudget.
	defaultAnnealSteps = 60000
)

func (annealer) Refine(ctx context.Context, p *Problem, start *Solution, o Options, emit func(*Solution)) (int, error) {
	maxSteps := o.maxSteps(defaultAnnealSteps)
	segments := annealSegments
	segSteps := maxSteps / segments
	if segSteps < 1 {
		segSteps = maxSteps
		segments = 1
	}
	best := start.cells(p)
	bestSnap := start
	steps := 0
	for seg := 0; seg < segments && steps < maxSteps && ctx.Err() == nil; seg++ {
		e := newEvaluator(p, bestSnap.clone())
		e.crossCheck = o.CrossCheck
		if e.cells() < best {
			// Maximizing the matching alone already beat the snapshot.
			best = e.cells()
			bestSnap = e.s.clone()
			emit(e.s)
		}
		rng := rand.New(rand.NewSource(o.Seed + int64(seg)*restartSeedStride))
		cur := e.cells()
		alpha := math.Exp(math.Log(annealTEnd/annealTStart) / float64(segSteps))
		temp := annealTStart
		for t := 0; t < segSteps && steps < maxSteps; t, steps = t+1, steps+1 {
			if steps%128 == 0 && ctx.Err() != nil {
				break
			}
			temp *= alpha
			m := e.mark()
			if !applyRandomMove(p, e, rng) {
				continue
			}
			c := e.cells()
			d := float64(c - cur)
			if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
				e.commit()
				cur = c
				if c < best {
					best = c
					bestSnap = e.s.clone()
					emit(e.s)
				}
			} else {
				e.revert(m)
			}
		}
	}
	return steps, ctx.Err()
}

// applyRandomMove applies one random feasible move (merge, relocate, or
// split-out) to the evaluator in place and reports whether a move was
// applied; an infeasible draw leaves the solution untouched. Shared by the
// annealer's walk, local search's restart perturbation, and the LNS
// destroy picker's fallbacks.
func applyRandomMove(p *Problem, e *evaluator, rng *rand.Rand) bool {
	pi := rng.Intn(2)
	ph := p.phases[pi]
	nb := len(e.s.blocks[pi])
	if nb == 0 {
		return false
	}
	switch rng.Intn(3) {
	case 0: // merge two random blocks
		if nb < 2 {
			return false
		}
		bi := rng.Intn(nb)
		bj := rng.Intn(nb - 1)
		if bj >= bi {
			bj++
		}
		if !ph.canMerge(&e.s.blocks[pi][bi], &e.s.blocks[pi][bj]) {
			return false
		}
		e.merge(pi, bi, bj)
	case 1: // relocate a random item
		if nb < 2 {
			return false
		}
		bi := rng.Intn(nb)
		mi := rng.Intn(len(e.s.blocks[pi][bi].members))
		to := rng.Intn(nb - 1)
		if to >= bi {
			to++
		}
		if !ph.canJoin(&e.s.blocks[pi][to], e.s.blocks[pi][bi].members[mi]) {
			return false
		}
		e.relocate(pi, bi, mi, to)
	default: // split a random member out into a singleton
		bi := rng.Intn(nb)
		if len(e.s.blocks[pi][bi].members) < 2 {
			return false
		}
		e.splitOut(pi, bi, rng.Intn(len(e.s.blocks[pi][bi].members)))
	}
	return true
}

package refine

import (
	"context"

	"wcm3d/internal/wcm"
)

// SearchSteps runs the strategies of o (all of them when o.Strategies is
// empty) one after another over the greedy plan, as Run does, but keeps
// their candidates from the arbiter: no certification and no stop at the
// lower bound cuts a run short, so o.MaxSteps fixes the work. It returns
// the steps executed and the cells of the cheapest candidate emitted (the
// greedy cells when none was).
func SearchSteps(ctx context.Context, in wcm.Input, opts wcm.Options, greedy *wcm.Result, o Options) (steps, cells int, err error) {
	refiners, err := strategiesFor(o.Strategies)
	if err != nil {
		return 0, 0, err
	}
	p, start, err := newSearch(in, opts.WithDefaults(), greedy)
	if err != nil || start == nil {
		return 0, greedy.AdditionalCells, err
	}
	cells = greedy.AdditionalCells
	for _, r := range refiners {
		n, err := r.Refine(ctx, p, start, o, func(s *Solution) { cells = min(cells, s.cells(p)) })
		steps += n
		if err != nil {
			return steps, cells, err
		}
	}
	return steps, cells, nil
}

package refine

import (
	"context"
	"testing"
	"time"

	"wcm3d/internal/verify"
	"wcm3d/internal/wcm"
)

// TestLowerBoundBelowOracle checks the capacity bound against the exact
// optimum: on the 200 tiny dies of the gap-corpus recipe it never exceeds
// verify.Oracle's replay-mode optimum, nor any plan the portfolio returns.
func TestLowerBoundBelowOracle(t *testing.T) {
	seeds := int64(200)
	if testing.Short() || raceEnabled {
		seeds = 40
	}
	atBound := 0
	for seed := int64(1); seed <= seeds; seed++ {
		in := tinyDie(t, seed)
		opts := wcm.DefaultOptions()
		greedy, err := wcm.Run(in, opts)
		if err != nil {
			t.Fatalf("seed %d: heuristic: %v", seed, err)
		}
		oracle, err := verify.Oracle(in, opts, verify.OracleOptions{ReplayConsumption: firstPhaseReuse(greedy)})
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		res, err := Run(context.Background(), in, opts, greedy, Options{
			Seed: seed, MaxSteps: 500, Budget: 30 * time.Second,
		})
		if err != nil {
			t.Fatalf("seed %d: refine: %v", seed, err)
		}
		if res.LowerBound > oracle.AdditionalCells {
			t.Errorf("seed %d: bound %d exceeds the oracle optimum %d", seed, res.LowerBound, oracle.AdditionalCells)
		}
		if res.LowerBound > res.AdditionalCells {
			t.Errorf("seed %d: bound %d exceeds the refined plan's %d cells", seed, res.LowerBound, res.AdditionalCells)
		}
		if res.LowerBound == res.AdditionalCells {
			atBound++
		}
		t.Logf("seed %d: bound %d, oracle %d, greedy %d, refined %d", seed, res.LowerBound, oracle.AdditionalCells, greedy.AdditionalCells, res.AdditionalCells)
	}
	t.Logf("%d/%d refined plans at the bound", atBound, seeds)
}

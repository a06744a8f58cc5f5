package refine_test

import (
	"context"
	"os"
	"testing"
	"time"

	"wcm3d"
	"wcm3d/internal/experiments"
	"wcm3d/internal/refine"
	"wcm3d/internal/wcm"
)

// TestLargeDieThroughput is the b20-class scalability gate, run in CI with
// WCM3D_REFINE_LARGE=1 (skipped otherwise — preparing ITC'99 large dies
// takes seconds, not milliseconds). It pins the property the incremental
// evaluator exists for: on a ~1000-item die the portfolio must sustain a
// minimum search rate inside the standard 2 s budget, instead of the
// clone-and-rematch scoring that managed a few hundred trials and never
// improved these dies. The -v log doubles as the improvement-table
// artifact the refine-smoke job uploads.
func TestLargeDieThroughput(t *testing.T) {
	if os.Getenv("WCM3D_REFINE_LARGE") == "" {
		t.Skip("set WCM3D_REFINE_LARGE=1 to run the b20-class throughput gate")
	}
	// Floor well under the ~40k steps/s measured on one core: slow CI
	// runners must pass, the old full-rematch scoring (~1k trials/s on
	// this class) must not.
	const minStepsPerSec = 5000
	tight := experiments.Scenario{Name: "performance-optimized", Tight: true}
	for _, name := range []string{"b20/1", "b21/1"} {
		p, err := wcm3d.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := wcm3d.PrepareDie(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := experiments.OurOptions(d, tight)
		greedy, err := wcm.Run(d.Input(), opts)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		rr, err := refine.Run(context.Background(), d.Input(), opts, greedy,
			refine.Options{Budget: 2 * time.Second, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		steps := 0
		for _, so := range rr.Strategies {
			steps += so.Steps
			t.Logf("%s %-6s %d steps, %d proposed, %d admitted, %d rejected (deadline=%v)",
				name, so.Name, so.Steps, so.Proposed, so.Admitted, so.Rejected, so.Deadline)
		}
		rate := float64(steps) / elapsed.Seconds()
		t.Logf("%s: greedy %d -> refined %d cells (saved %d) — %d steps in %v (%.0f steps/s)",
			name, rr.GreedyCells, rr.AdditionalCells, rr.CellsSaved, steps, elapsed.Round(time.Millisecond), rate)
		if rr.AdditionalCells > rr.GreedyCells {
			t.Errorf("%s: refined plan worse than greedy (%d > %d)", name, rr.AdditionalCells, rr.GreedyCells)
		}
		if rate < minStepsPerSec {
			t.Errorf("%s: portfolio searched %.0f steps/s, floor is %d — the incremental evaluator has regressed",
				name, rate, minStepsPerSec)
		}
	}
}

package refine

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"wcm3d/internal/verify"
	"wcm3d/internal/wcm"
)

// planFingerprint serializes an assignment for bit-reproducibility checks.
func planFingerprint(t *testing.T, res *Result) string {
	t.Helper()
	raw, err := json.Marshal(res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestDeterministicAcrossWorkers pins the reproducibility contract: for a
// fixed (seed, step budget, strategy) the refined plan is bit-identical at
// every greedy-engine worker count — parallelism changes latency only.
// Each strategy is pinned alone so the portfolio's choice of winner cannot
// blur the comparison.
func TestDeterministicAcrossWorkers(t *testing.T) {
	seeds := []int64{3, 21, 45} // all three flip-flop regimes
	if testing.Short() || raceEnabled {
		seeds = seeds[:1]
	}
	for _, strategy := range []string{"local", "anneal", "lns"} {
		for _, seed := range seeds {
			in := tinyDie(t, seed)
			opts := wcm.DefaultOptions()
			want := ""
			wantCells := 0
			for _, workers := range []int{1, 2, 8} {
				wopts := opts
				wopts.Workers = workers
				greedy, err := wcm.Run(in, wopts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(context.Background(), in, wopts, greedy, Options{
					Seed:       seed,
					MaxSteps:   5000,
					Budget:     30 * time.Second, // generous: steps terminate, not the clock
					Strategies: []string{strategy},
				})
				if err != nil {
					t.Fatal(err)
				}
				fp := planFingerprint(t, res)
				if want == "" {
					want, wantCells = fp, res.AdditionalCells
					continue
				}
				if fp != want {
					t.Errorf("strategy %s seed %d: plan differs at workers=%d", strategy, seed, workers)
				}
				if res.AdditionalCells != wantCells {
					t.Errorf("strategy %s seed %d: %d cells at workers=%d, want %d",
						strategy, seed, res.AdditionalCells, workers, wantCells)
				}
			}
		}
	}
}

// TestExpiredContextReturnsGreedyUnchanged pins the deadline fast path: an
// already-expired context must hand back the exact greedy assignment —
// same pointer, zero search — and must not block.
func TestExpiredContextReturnsGreedyUnchanged(t *testing.T) {
	in := tinyDie(t, 3)
	opts := wcm.DefaultOptions()
	greedy, err := wcm.Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan *Result, 1)
	go func() {
		res, err := Run(ctx, in, opts, greedy, Options{Seed: 3})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res.Assignment != greedy.Assignment {
			t.Error("expired context: assignment is not the greedy plan's")
		}
		if res.Improved || res.CellsSaved != 0 || len(res.Strategies) != 0 {
			t.Errorf("expired context: refinement ran anyway: %+v", res)
		}
		if res.AdditionalCells != greedy.AdditionalCells {
			t.Errorf("expired context: cells %d, greedy %d", res.AdditionalCells, greedy.AdditionalCells)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("expired context: Run blocked")
	}
}

// TestCancellationLeavesNoGoroutines cancels mid-anneal and checks the
// portfolio's goroutines drain: Run must return promptly and the process
// goroutine count must settle back to where it started.
func TestCancellationLeavesNoGoroutines(t *testing.T) {
	in := tinyDie(t, 45) // abundant-FF regime: the largest tiny search space
	opts := wcm.DefaultOptions()
	greedy, err := wcm.Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond) // land mid-search
		cancel()
	}()
	if _, err := Run(ctx, in, opts, greedy, Options{
		Seed:     45,
		MaxSteps: 1 << 30, // only the cancellation can stop the annealer
		Budget:   time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRefinedPlansCertify runs the portfolio across the three flip-flop
// regimes and hands every improved plan to the independent verifier once
// more from the outside — the same contract the arbiter enforces inside.
func TestRefinedPlansCertify(t *testing.T) {
	seeds := []int64{3, 9, 21, 33, 45, 57}
	if testing.Short() || raceEnabled {
		seeds = seeds[:2]
	}
	improved := 0
	for _, seed := range seeds {
		in := tinyDie(t, seed)
		opts := wcm.DefaultOptions()
		greedy, err := wcm.Run(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), in, opts, greedy, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.AdditionalCells > greedy.AdditionalCells {
			t.Errorf("seed %d: refinement made the plan worse", seed)
		}
		if res.Improved {
			improved++
		}
		eff := opts.WithDefaults()
		vres, err := verify.Plan(in, res.Assignment, verify.Options{Thresholds: &eff})
		if err != nil {
			t.Fatalf("seed %d: verifier could not run: %v", seed, err)
		}
		if !vres.OK() {
			t.Errorf("seed %d: refined plan rejected by the verifier:", seed)
			for _, v := range vres.Violations {
				t.Errorf("  %s", v)
			}
		}
	}
	t.Logf("%d/%d dies improved", improved, len(seeds))
}

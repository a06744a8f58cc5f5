package refine

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"wcm3d/internal/scan"
	"wcm3d/internal/wcm"
)

// improvingSolution runs plain local search on a known-gap die and returns
// the problem, the greedy start, and a strictly better solution — raw
// material for arbiter tests that need a genuine improvement in hand.
func improvingSolution(t *testing.T) (*Problem, *Solution, *Solution) {
	t.Helper()
	// Known-gap corpus dies; not every gap is closable by local search
	// alone, so probe until one improves.
	for _, seed := range []int64{24, 25, 20, 23, 26, 27, 29} {
		p, start := evalProblem(t, seed)
		var improved *Solution
		_, err := localSearch{}.Refine(context.Background(), p, start,
			Options{Seed: seed, MaxSteps: 50000},
			func(s *Solution) bool {
				improved = s.clone()
				return false
			})
		if err != nil {
			t.Fatal(err)
		}
		if improved != nil && improved.cells(p) < start.cells(p) {
			return p, start, improved
		}
	}
	t.Fatal("local search found no improvement on any known-gap die")
	return nil, nil, nil
}

// TestArbiterSequentialEqualCost pins the cheap path of the same contract:
// once a cost is admitted, a second candidate at the same cost fails the
// pre-check before encoding or verification is even attempted.
func TestArbiterSequentialEqualCost(t *testing.T) {
	p, start, improved := improvingSolution(t)
	certified := 0
	arb := &arbiter{p: p, bestCells: start.cells(p)}
	arb.certifyFn = func(*scan.Assignment) bool { certified++; return true }

	if v := arb.offer("local", improved); v != offerAdmitted {
		t.Fatalf("first offer verdict = %d, want offerAdmitted", v)
	}
	if v := arb.offer("anneal", improved); v != offerNotBetter {
		t.Fatalf("equal-cost re-offer verdict = %d, want offerNotBetter", v)
	}
	if certified != 1 {
		t.Fatalf("verifier ran %d times, want 1 (pre-check must gate the second offer)", certified)
	}
	if arb.strategy != "local" {
		t.Fatalf("winning strategy = %q, want local", arb.strategy)
	}
}

// hangAfterSearch is a test strategy: it runs real local search (admitting
// improvements through the arbiter) and then blocks until the deadline —
// the shape of a sweep that expires mid-flight after finding something.
type hangAfterSearch struct{}

func (hangAfterSearch) Name() string { return "hang" }

func (hangAfterSearch) Refine(ctx context.Context, p *Problem, start *Solution, o Options, emit func(*Solution) bool) (int, error) {
	steps, _ := localSearch{}.Refine(ctx, p, start, o, emit)
	<-ctx.Done()
	return steps, ctx.Err()
}

// TestDeadlineMidSweepKeepsBestAdmitted pins the expiry contract: when the
// budget expires with a strategy still running, Run must return the best
// already-admitted plan — not fall back to greedy just because the sweep
// did not finish cleanly.
func TestDeadlineMidSweepKeepsBestAdmitted(t *testing.T) {
	strategyRegistry["hang"] = hangAfterSearch{}
	defer delete(strategyRegistry, "hang")

	in := tinyDie(t, 24) // known-gap die: the search will admit a plan
	opts := wcm.DefaultOptions()
	greedy, err := wcm.Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), in, opts, greedy, Options{
		Seed:       24,
		Budget:     500 * time.Millisecond,
		Strategies: []string{"hang"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strategies) != 1 || !res.Strategies[0].Deadline {
		t.Fatalf("expected the hang strategy to be cut by the deadline: %+v", res.Strategies)
	}
	if res.Strategies[0].Admitted == 0 {
		t.Fatal("hang strategy admitted nothing — the test exercises no race")
	}
	if !res.Improved || res.AdditionalCells >= res.GreedyCells {
		t.Fatalf("deadline mid-sweep dropped the admitted plan: improved=%v cells=%d greedy=%d",
			res.Improved, res.AdditionalCells, res.GreedyCells)
	}
	if res.Strategy != "hang" {
		t.Fatalf("winning strategy = %q, want hang", res.Strategy)
	}
}

// TestBudgetSharesReachLaterStrategies pins the budget split: a strategy
// that runs to its deadline is cut at its share, so the strategy after it
// still searches — on one core as on many.
func TestBudgetSharesReachLaterStrategies(t *testing.T) {
	strategyRegistry["hang"] = hangAfterSearch{}
	defer delete(strategyRegistry, "hang")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	in := tinyDie(t, 24)
	opts := wcm.DefaultOptions()
	greedy, err := wcm.Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), in, opts, greedy, Options{
		Seed:       24,
		Budget:     500 * time.Millisecond,
		Strategies: []string{"hang", "lns"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strategies) != 2 {
		t.Fatalf("want two strategy outcomes, got %+v", res.Strategies)
	}
	if hang := res.Strategies[0]; !hang.Deadline {
		t.Fatalf("hang strategy was not cut by its share: %+v", hang)
	}
	if l := res.Strategies[1]; l.Steps == 0 {
		t.Fatalf("lns ran no steps: the first strategy ate the whole budget: %+v", l)
	}
}

// TestStrategiesFor pins name resolution: default order when empty,
// duplicates collapse to the first occurrence, unknown names error and
// name the known set.
func TestStrategiesFor(t *testing.T) {
	names := func(rs []Refiner) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = r.Name()
		}
		return out
	}
	cases := []struct {
		name    string
		in      []string
		want    []string
		wantErr string
	}{
		{"nil runs all in order", nil, []string{"lns", "local", "anneal"}, ""},
		{"empty runs all in order", []string{}, []string{"lns", "local", "anneal"}, ""},
		{"explicit subset", []string{"lns", "local"}, []string{"lns", "local"}, ""},
		{"duplicates collapse", []string{"local", "local", "anneal", "local"}, []string{"local", "anneal"}, ""},
		{"unknown name", []string{"local", "bogus"}, nil, `unknown strategy "bogus"`},
		{"known set in error", []string{"tabu"}, nil, "anneal, lns, local"},
		{"bnb is not a strategy", []string{"bnb"}, nil, `unknown strategy "bnb"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := strategiesFor(tc.in)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			g := names(got)
			if len(g) != len(tc.want) {
				t.Fatalf("got %v, want %v", g, tc.want)
			}
			for i := range g {
				if g[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", g, tc.want)
				}
			}
		})
	}
}

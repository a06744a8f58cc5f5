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
			func(s *Solution) { improved = s.clone() })
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
	local, anneal := &StrategyOutcome{Name: "local"}, &StrategyOutcome{Name: "anneal"}

	arb.offer(local, improved)
	arb.settle()
	if local.Admitted != 1 || arb.bestCells != improved.cells(p) {
		t.Fatalf("first offer not admitted: %+v, best %d cells", local, arb.bestCells)
	}
	arb.offer(anneal, improved)
	if len(arb.pending) != 0 {
		t.Fatal("equal-cost re-offer entered the pending list")
	}
	arb.settle()
	if certified != 1 {
		t.Fatalf("verifier ran %d times, want 1 (pre-check must gate the second offer)", certified)
	}
	if arb.strategy != "local" || anneal.Admitted != 0 || anneal.Proposed != 1 {
		t.Fatalf("winning strategy = %q, anneal %+v; want local", arb.strategy, anneal)
	}
}

// hangAfterSearch is a test strategy: it runs real local search (admitting
// improvements through the arbiter) and then blocks until the deadline —
// the shape of a sweep that expires mid-flight after finding something.
type hangAfterSearch struct{}

func (hangAfterSearch) Name() string { return "hang" }

func (hangAfterSearch) Refine(ctx context.Context, p *Problem, start *Solution, o Options, emit func(*Solution)) (int, error) {
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
	requireAboveBound(t, res)
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

// requireAboveBound guards the premise of the deadline tests: on a die the
// search closes at its lower bound, the bound — not the deadline — ends
// the strategies.
func requireAboveBound(t *testing.T, res *Result) {
	t.Helper()
	if res.AdditionalCells <= res.LowerBound {
		t.Fatalf("the run reached the lower bound (%d cells): pick a die the bound does not close", res.LowerBound)
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
	requireAboveBound(t, res)
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

// scripted is a test strategy that emits a fixed list of candidates.
type scripted struct {
	name string
	sols []*Solution
}

func (s scripted) Name() string { return s.name }

func (s scripted) Refine(_ context.Context, _ *Problem, _ *Solution, _ Options, emit func(*Solution)) (int, error) {
	for _, sol := range s.sols {
		emit(sol)
	}
	return len(s.sols), nil
}

// TestArbiterCertifiesBestFirst pins lazy certification: candidates wait
// uncertified until their strategy ends, the best pending one is
// certified first, and a rejected one hands the lead to the next best.
// The candidates are the greedy start with k of its flip-flops dropped
// (cells = start + k), offered against an incumbent pretending to cost
// more than all of them.
func TestArbiterCertifiesBestFirst(t *testing.T) {
	p, start := evalProblem(t, 64) // six matched blocks in the greedy start
	matched := 0
	for pi := range start.blocks {
		for bi := range start.blocks[pi] {
			if start.blocks[pi][bi].ff >= 0 {
				matched++
			}
		}
	}
	if matched < 5 {
		t.Fatalf("start holds %d matched blocks, the script needs 5", matched)
	}
	dropped := func(k int) *Solution {
		s := start.clone()
		for pi := range s.blocks {
			for bi := range s.blocks[pi] {
				if k > 0 && s.blocks[pi][bi].ff >= 0 {
					s.blocks[pi][bi].ff = -1
					k--
				}
			}
		}
		return s
	}
	c0 := start.cells(p)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	t.Run("one certification per strategy", func(t *testing.T) {
		certified := 0
		arb := &arbiter{p: p, bestCells: c0 + 6, certifyFn: func(*scan.Assignment) bool { certified++; return true }}
		outs := arb.run(ctx, start, []Refiner{
			scripted{"a", []*Solution{dropped(5), dropped(4)}},
			scripted{"b", []*Solution{dropped(3), dropped(4), dropped(2)}},
			scripted{"c", []*Solution{dropped(1)}},
		}, Options{})
		if certified != len(outs) || len(outs) != 3 {
			t.Fatalf("%d certifications over %d strategies, want one each of 3", certified, len(outs))
		}
		if arb.bestCells != c0+1 || arb.strategy != "c" {
			t.Fatalf("best %d cells from %q, want %d from c", arb.bestCells, arb.strategy, c0+1)
		}
		for _, out := range outs {
			if out.Admitted != 1 || out.Rejected != 0 || out.Deadline {
				t.Errorf("outcome %+v, want exactly one admitted", out)
			}
		}
		if outs[1].Proposed != 3 {
			t.Errorf("b proposed %d, want 3 (the no-better candidate still counts)", outs[1].Proposed)
		}
	})

	t.Run("rejected top falls back to the next best", func(t *testing.T) {
		certified := 0
		arb := &arbiter{p: p, bestCells: c0 + 6}
		arb.certifyFn = func(asn *scan.Assignment) bool {
			certified++
			return asn.ReusedFFs() != matched-1 // reject the cheapest, dropped(1)
		}
		outs := arb.run(ctx, start, []Refiner{
			scripted{"a", []*Solution{dropped(3), dropped(2), dropped(1)}},
		}, Options{})
		if arb.bestCells != c0+2 || arb.best.ReusedFFs() != matched-2 {
			t.Fatalf("best %d cells, want the next best candidate at %d", arb.bestCells, c0+2)
		}
		if certified != 2 || outs[0].Admitted != 1 || outs[0].Rejected != 1 {
			t.Fatalf("%d certifications, outcome %+v; want 2, one rejected then one admitted", certified, outs[0])
		}
	})
}

// TestRunStopsAtBound pins the stop at the lower bound: once a certified
// plan reaches it, the running strategy ends at once (hang would otherwise
// block for the whole minute), later strategies never start, and the
// stopped strategy is not reported as cut by the deadline. A greedy plan
// already at its bound starts no strategy at all.
func TestRunStopsAtBound(t *testing.T) {
	strategyRegistry["hang"] = hangAfterSearch{}
	defer delete(strategyRegistry, "hang")
	opts := wcm.DefaultOptions()

	in := tinyDie(t, 188) // local search closes this die at its bound
	greedy, err := wcm.Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := Run(context.Background(), in, opts, greedy, Options{
		Seed:       188,
		Budget:     time.Minute,
		Strategies: []string{"hang", "lns"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("Run took %v: the bound did not end the hanging strategy", elapsed)
	}
	if res.AdditionalCells != res.LowerBound || !res.Improved {
		t.Fatalf("refined %d cells, bound %d: the run did not reach the bound", res.AdditionalCells, res.LowerBound)
	}
	if len(res.Strategies) != 1 || res.Strategies[0].Name != "hang" || res.Strategies[0].Deadline {
		t.Fatalf("want only hang, not cut by the deadline: %+v", res.Strategies)
	}

	in = tinyDie(t, 32) // greedy is already at its bound
	greedy, err = wcm.Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Run(context.Background(), in, opts, greedy, Options{Seed: 32, Budget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.LowerBound != greedy.AdditionalCells || len(res.Strategies) != 0 || res.Assignment != greedy.Assignment {
		t.Fatalf("greedy at its bound (%d of %d cells) still searched: %+v",
			greedy.AdditionalCells, res.LowerBound, res.Strategies)
	}
}

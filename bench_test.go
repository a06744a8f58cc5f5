package wcm3d_test

// Benchmarks, one per paper table and figure, plus the ablations DESIGN.md
// calls out and per-substrate micro-benchmarks. Each table/figure bench
// exercises the same code path cmd/tables runs for the paper-faithful
// output, but on the smaller circuit families and reduced ATPG budgets so
// an iteration stays in the seconds range; run `go run ./cmd/tables -all`
// for the full 24-die reproduction.
//
// Several benches attach the experiment's headline numbers as custom
// metrics (cells/die, violations, edge growth), so `go test -bench` output
// doubles as a quick regression dashboard for solution quality.

import (
	"io"
	"math/rand"
	"testing"

	"wcm3d"
	"wcm3d/internal/atpg"
	"wcm3d/internal/experiments"
	"wcm3d/internal/faults"
	"wcm3d/internal/faultsim"
	"wcm3d/internal/netgen"
	"wcm3d/internal/place"
	"wcm3d/internal/scan"
	"wcm3d/internal/sta"
	"wcm3d/internal/wcm"
)

func prepareDies(b *testing.B, circuit string) []*experiments.Die {
	b.Helper()
	dies, err := experiments.PrepareSuite(netgen.ITC99Circuit(circuit), 1)
	if err != nil {
		b.Fatal(err)
	}
	return dies
}

// BenchmarkTable1_OrderingB12 regenerates Table I: Agrawal's method started
// from the inbound vs the outbound TSV set, fault-graded per order.
func BenchmarkTable1_OrderingB12(b *testing.B) {
	dies := prepareDies(b, "b12")
	budget := experiments.ReducedBudget(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(dies, budget)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.RenderTable1(io.Discard, rows)
		}
	}
}

// BenchmarkTable2_Generate regenerates Table II: all 24 benchmark dies.
func BenchmarkTable2_Generate(b *testing.B) {
	profiles := netgen.ITC99Profiles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(profiles, 1)
		if err != nil {
			b.Fatal(err)
		}
		experiments.RenderTable2(io.Discard, rows)
	}
}

// BenchmarkTable3_B12 regenerates Table III on the b12 family: four
// method × scenario combinations per die plus timing signoff. Violations
// per method are reported as metrics.
func BenchmarkTable3_B12(b *testing.B) {
	dies := prepareDies(b, "b12")
	b.ResetTimer()
	var last experiments.Table3Summary
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(dies)
		if err != nil {
			b.Fatal(err)
		}
		last = experiments.Summarize(rows)
	}
	b.ReportMetric(float64(last.AgrViolations), "agrawal-violations")
	b.ReportMetric(float64(last.OurViolations), "our-violations")
	b.ReportMetric(last.OurTightCells, "our-tight-cells/die")
	b.ReportMetric(last.AgrLooseCells, "agr-loose-cells/die")
}

// BenchmarkTable4_B11 regenerates Table IV (coverage and pattern counts,
// stuck-at + transition, Agrawal vs ours) on the b11 family.
func BenchmarkTable4_B11(b *testing.B) {
	dies := prepareDies(b, "b11")
	budget := experiments.ReducedBudget(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(dies, budget)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.RenderTable4(io.Discard, rows)
		}
	}
}

// BenchmarkTable5_Overlap regenerates Table V's overlapped-cone comparison
// on the b12 family (the paper uses b20-b22; the mechanism is identical —
// run cmd/tables -table 5 for the full set).
func BenchmarkTable5_Overlap(b *testing.B) {
	dies := prepareDies(b, "b12")
	budget := experiments.ReducedBudget(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(dies, budget)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.RenderTable5(io.Discard, rows)
		}
	}
}

// BenchmarkFigure7_Edges regenerates Figure 7: sharing-graph edge growth
// from overlapped-cone edges, on the b20 family. The average growth is
// attached as a metric.
func BenchmarkFigure7_Edges(b *testing.B) {
	dies := prepareDies(b, "b20")
	b.ResetTimer()
	var growth float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure7(dies)
		if err != nil {
			b.Fatal(err)
		}
		growth = 0
		for _, r := range rows {
			growth += r.PctGrowth
		}
		growth /= float64(len(rows))
	}
	b.ReportMetric(growth, "edge-growth-%")
}

// ---------------------------------------------------------------- ablations

// BenchmarkAblation_Ordering isolates design decision 1: larger-set-first
// versus the fixed orders, measured by additional wrapper cells.
func BenchmarkAblation_Ordering(b *testing.B) {
	dies := prepareDies(b, "b12")
	for _, order := range []wcm.OrderPolicy{
		wcm.OrderLargerFirst, wcm.OrderInboundFirst, wcm.OrderOutboundFirst, wcm.OrderSmallerFirst,
	} {
		b.Run(order.String(), func(b *testing.B) {
			cells := 0
			for i := 0; i < b.N; i++ {
				cells = 0
				for _, d := range dies {
					opts := experiments.OurOptions(d, true)
					opts.Order = order
					res, err := wcm.Run(d.Input(), opts)
					if err != nil {
						b.Fatal(err)
					}
					cells += res.AdditionalCells
				}
			}
			b.ReportMetric(float64(cells), "cells")
		})
	}
}

// BenchmarkAblation_WireDelay isolates design decision 2: the wire-aware
// timing model versus capacitance-only, measured by timing violations —
// the heart of Table III.
func BenchmarkAblation_WireDelay(b *testing.B) {
	dies := prepareDies(b, "b12")
	for _, timing := range []wcm.TimingModel{wcm.TimingCapWire, wcm.TimingCapOnly} {
		b.Run(timing.String(), func(b *testing.B) {
			viol := 0
			for i := 0; i < b.N; i++ {
				viol = 0
				for _, d := range dies {
					opts := experiments.OurOptions(d, true)
					opts.Timing = timing
					res, err := wcm.Run(d.Input(), opts)
					if err != nil {
						b.Fatal(err)
					}
					v, _, err := experiments.CheckTiming(d, res.Assignment)
					if err != nil {
						b.Fatal(err)
					}
					if v {
						viol++
					}
				}
			}
			b.ReportMetric(float64(viol), "violations")
		})
	}
}

// ------------------------------------------------------------- substrates

// BenchmarkGenerateDie measures the synthetic benchmark generator at b20
// scale (~7k gates).
func BenchmarkGenerateDie(b *testing.B) {
	p := netgen.ITC99Circuit("b20")[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netgen.Generate(p, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlace measures grid placement with force-directed refinement.
func BenchmarkPlace(b *testing.B) {
	n, err := netgen.Generate(netgen.ITC99Circuit("b20")[0], 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := place.Place(n, place.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTA measures a full timing analysis at b20 scale.
func BenchmarkSTA(b *testing.B) {
	n, err := netgen.Generate(netgen.ITC99Circuit("b20")[0], 1)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := place.Place(n, place.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	lib := wcm3d.DefaultLibrary()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sta.Analyze(n, lib, sta.Config{ClockPS: 2000, Placement: pl}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultSim measures bit-parallel fault simulation: one 64-pattern
// block against the full collapsed fault list of a b11-scale die. Each
// iteration grades a freshly simulated block, since an engine shares work
// between the faults of one block; the good-machine simulation is not
// timed.
func BenchmarkFaultSim(b *testing.B) {
	n, err := netgen.Generate(netgen.ITC99Circuit("b11")[1], 1)
	if err != nil {
		b.Fatal(err)
	}
	sim := faultsim.New(n)
	eng := sim.NewEngine()
	rng := rand.New(rand.NewSource(1))
	pats := make([]faultsim.Pattern, 64)
	for i := range pats {
		pats[i] = sim.RandomPattern(rng)
	}
	list := faults.CollapsedList(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		block, err := sim.GoodSim(pats)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, f := range list {
			eng.Detects(f, block)
		}
	}
	b.ReportMetric(float64(len(list)), "faults")
}

// BenchmarkATPG measures the full pattern-generation flow (random phase,
// PODEM, compaction) on a b11-scale die.
func BenchmarkATPG(b *testing.B) {
	n, err := netgen.Generate(netgen.ITC99Circuit("b11")[1], 1)
	if err != nil {
		b.Fatal(err)
	}
	list := faults.CollapsedList(n)
	b.ResetTimer()
	var res *atpg.Result
	for i := 0; i < b.N; i++ {
		res, err = atpg.Run(n, list, atpg.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.TestCoverage(), "test-coverage-%")
	b.ReportMetric(float64(res.PatternCount()), "patterns")
}

// BenchmarkTransitionATPG is BenchmarkATPG for the transition-delay model
// on the same die.
func BenchmarkTransitionATPG(b *testing.B) {
	n, err := netgen.Generate(netgen.ITC99Circuit("b11")[1], 1)
	if err != nil {
		b.Fatal(err)
	}
	list := faults.TransitionList(n)
	b.ResetTimer()
	var res *atpg.TransitionResult
	for i := 0; i < b.N; i++ {
		res, err = atpg.RunTransition(n, list, atpg.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.TestCoverage(), "test-coverage-%")
	b.ReportMetric(float64(res.PatternCount()), "patterns")
}

// BenchmarkStuckAtServiceDies is service-mix's ATPG stage: stuck-at ATPG
// at the reduced budget over the ours/tight plans of the eight b11 and
// b12 dies at die seeds 2-5, 32 runs per iteration. Preparing and
// solving the dies is setup.
func BenchmarkStuckAtServiceDies(b *testing.B) {
	type job struct {
		d    *experiments.Die
		asn  *scan.Assignment
		seed int64
	}
	var jobs []job
	for _, c := range []string{"b11", "b12"} {
		for _, p := range netgen.ITC99Circuit(c) {
			for seed := int64(2); seed <= 5; seed++ {
				d, err := experiments.PrepareDie(p, seed)
				if err != nil {
					b.Fatal(err)
				}
				res, err := wcm.Run(d.Input(), experiments.OurOptions(d, true))
				if err != nil {
					b.Fatal(err)
				}
				jobs = append(jobs, job{d, res.Assignment, seed})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			if _, err := experiments.EvaluateStuckAt(j.d, j.asn, experiments.ReducedBudget(j.seed)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWCM measures the minimization engine itself (graph construction
// plus clique partitioning) on the largest b22 die.
func BenchmarkWCM(b *testing.B) {
	d, err := experiments.PrepareDie(netgen.ITC99Circuit("b22")[2], 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *wcm.Result
	for i := 0; i < b.N; i++ {
		res, err = wcm.Run(d.Input(), experiments.OurOptions(d, true))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.ReusedFFs), "reused")
	b.ReportMetric(float64(res.AdditionalCells), "cells")
}

// BenchmarkRunLargestDie measures one complete wcm.Run — the unit of
// latency behind every wcmd job — on the largest b22 die, with the
// single-die hot path forced serial (workers=1, the pre-parallelism
// baseline shape) and free to use every core. The plan is bit-identical
// either way; only the latency moves.
func BenchmarkRunLargestDie(b *testing.B) {
	d, err := experiments.PrepareDie(netgen.ITC99Circuit("b22")[2], 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *wcm.Result
			for i := 0; i < b.N; i++ {
				opts := experiments.OurOptions(d, true)
				opts.Workers = bc.workers
				res, err = wcm.Run(d.Input(), opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.ReusedFFs), "reused")
			b.ReportMetric(float64(res.AdditionalCells), "cells")
		})
	}
}

// BenchmarkTAMWidths_B11 regenerates the TAM width sweep on the b11 stack:
// wrap each die, enumerate its Pareto wrapper designs, and pack the stack
// at each budget. The speedup metric is the 16-wire packed-vs-serial
// ratio — the scheduler's headline number.
func BenchmarkTAMWidths_B11(b *testing.B) {
	dies := prepareDies(b, "b11")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TAMWidths(dies, []int{16, 32}, experiments.ReducedBudget(1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Speedup(), "speedup-16w")
		}
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyScale runs every workload on b11 dies in well under a second.
var tinyScale = scale{
	setups:       2,
	warmup:       []string{"b11/0"},
	sweep:        []string{"b11/0", "b11/1"},
	solve:        []string{"b11/2"},
	refine:       []string{"b11/1"},
	refineBudget: 50 * time.Millisecond,
	jobs:         50,
	jobDies:      family("b11"),
	jobSeeds:     2,
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, lines, err := measure(name, 1, 0, traced, tinyScale, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: %d/%d failed: %v", name, traced, res.Failed, res.Attempted, lines)
			}
			defs := layerMetrics
			if !traced {
				defs = e2eMetrics[:len(e2eMetrics)-1] // peak_rss_mb comes from the parent
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: no %s", name, traced, d.name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", name, d.name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never be 0", name, d.name, m.Value)
				}
			}
			if traced {
				checkTracedLayers(t, name, res)
			}
		}
	}
}

// checkTracedLayers asserts that the spans of each workload reach the
// layers it exists to exercise, refresh attribution included.
func checkTracedLayers(t *testing.T, name string, res result) {
	t.Helper()
	want := map[string][]string{
		"sweep-cold":  {"netgen.ms", "place.ms", "sta.prepare_ms", "faults.count", "wcm.self_ms", "wcm.refresh_ms", "verify.refresh_ms", "signoff.ms"},
		"solve-warm":  {"wcm.self_ms", "wcm.edges", "wcm.refresh_ms", "verify.self_ms", "verify.refresh_ms"},
		"refine-2s":   {"refine.ms", "refine.refresh_ms", "refine.steps"},
		"service-mix": {"http.post_ms_p50", "service.run_ms_p50", "cache.lookups", "service.stage.atpg.ms"},
	}[name]
	for _, m := range want {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("%s traced: %s = %v, want > 0", name, m, res.Metrics[m].Value)
		}
	}
	if name == "solve-warm" && res.Metrics["netgen.ms"].Value != 0 {
		t.Errorf("solve-warm traced: netgen.ms = %v, the timed part must not generate dies", res.Metrics["netgen.ms"].Value)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the benchmark prints %d", what, len(got), len(want))
		}
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, workloadNames)
	}
}

// TestPinnedGreedyMatchesRefineGap cross-checks the pinned seed-1 greedy
// cells against the committed refinement-gap table.
func TestPinnedGreedyMatchesRefineGap(t *testing.T) {
	f, err := os.Open("../results/refine_gap.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	greedy := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 2 && strings.Contains(fields[0], "/Die") {
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				t.Fatalf("refine_gap.txt: %q: %v", sc.Text(), err)
			}
			greedy[fields[0]] = n
		}
	}
	ps, err := profiles(pinnedDies(fullScale))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		for _, seed := range []string{"1", "2"} {
			if _, ok := expected.Seeds[seed][p.Name()]; !ok {
				t.Errorf("expected.json: seed %s has no %s", seed, p.Name())
			}
		}
		want, ok := greedy[p.Name()]
		if got := expected.Seeds["1"][p.Name()].Cells; !ok || got != want {
			t.Errorf("%s: pinned greedy cells %d, refine_gap.txt says %d (listed: %v)", p.Name(), got, want, ok)
		}
	}
}

func TestStats(t *testing.T) {
	if g := geomean([]float64{1, 10, 100}); math.Abs(g-10) > 1e-9 {
		t.Errorf("geomean = %v, want 10", g)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v, %v; want 1, 4", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v", m)
	}
	if p := percentile(xs, 100); p != 10 {
		t.Errorf("p100 = %v", p)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{3000, 99}, {1000, 99}, {999, 95}, {10000, 99.9}, {200, 95}, {40, 75}, {20, 50}, {19, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps span 2: 20..30 counts once
		{ID: 4, Parent: 1, Start: 90, End: 120},
		{ID: 5, Parent: 3, Start: 25, End: 35},
		{ID: 6, Parent: 3, Start: 25, End: 35}, // identical sibling
	}
	computeSelf(spans)
	for i, want := range []float64{100 - 40 - 10, 20, 30 - 10, 30, 10, 10} {
		if spans[i].Self != want {
			t.Errorf("span %d self = %v, want %v", spans[i].ID, spans[i].Self, want)
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.start("x", "op", 0)
	tr.end(id)
	tr.count("c", 1)
	tr.add("y", "op", id, time.Now(), time.Now())
	if id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
}

func TestCheck(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("spec.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "wall_s", "better": "lower", "bound": 0.1},
		{"name": "cells", "better": "lower", "bound": 0.05},
	}})
	base := write("base.json", result{Correct: true, Metrics: map[string]metric{
		"w/wall_s": {Value: 10}, "w/cells": {Value: 100},
	}})
	for _, c := range []struct {
		wall, cells float64
		failed      int
		ok          bool
	}{{10.9, 100, 0, true}, {11.1, 100, 0, false}, {5, 106, 0, false}, {5, 90, 0, true}, {10, 100, 1, false}} {
		got := result{Failed: c.failed, Metrics: map[string]metric{"w/wall_s": {Value: c.wall}, "w/cells": {Value: c.cells}}}
		ok, lines, err := check(base, spec, got)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok {
			t.Errorf("wall %v cells %v failed %d: ok = %v, want %v\n%s", c.wall, c.cells, c.failed, ok, c.ok, strings.Join(lines, "\n"))
		}
	}
}

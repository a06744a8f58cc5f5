package main

import (
	"fmt"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// e2eMetrics are printed by every untraced run, in this order.
// peak_rss_mb is added by the parent process from the child's rusage.
// Latency percentiles over all operations are printed as an info line
// instead: over a few dies of different sizes they measure which die is
// slowest, not a tail.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"die_ms_geomean", "ms"},
	{"cells", "count"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are printed by every traced run, per round of the
// workload's fixed work; a layer the workload does not reach reads 0.
var layerMetrics = []metricDef{
	{"netgen.ms", "ms"},
	{"place.ms", "ms"},
	{"place.repeaters_ms", "ms"},
	{"scan.functional_ms", "ms"},
	{"sta.prepare_ms", "ms"},
	{"sta.prepare_calls", "count"},
	{"faults.ms", "ms"},
	{"faults.count", "count"},
	{"netlist.gates", "count"},
	{"wcm.self_ms", "ms"},
	{"wcm.nodes", "count"},
	{"wcm.edges", "count"},
	{"wcm.overlap_edges", "count"},
	{"wcm.merges", "count"},
	{"wcm.refresh_ms", "ms"},
	{"verify.refresh_ms", "ms"},
	{"refine.refresh_ms", "ms"},
	{"refresh.calls", "count"},
	{"verify.self_ms", "ms"},
	{"verify.calls", "count"},
	{"signoff.ms", "ms"},
	{"refine.ms", "ms"},
	{"refine.overrun_ms", "ms"},
	{"refine.steps", "count"},
	{"refine.steps.local", "count"},
	{"refine.steps.anneal", "count"},
	{"refine.steps.bnb", "count"},
	{"refine.steps.lns", "count"},
	{"refine.proposed", "count"},
	{"refine.admit_ratio", "ratio"},
	{"refine.cells_saved", "count"},
	{"http.post_ms_p50", "ms"},
	{"http.get_ms_p50", "ms"},
	{"http.polls_per_job", "count"},
	{"service.queue_ms_p50", "ms"},
	{"service.run_ms_p50", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"cache.lookups", "count"},
	{"cache.evictions", "count"},
	{"service.stage.prepare.ms", "ms"},
	{"service.stage.minimize.ms", "ms"},
	{"service.stage.signoff.ms", "ms"},
	{"service.stage.atpg.ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.uncovered_pct", "%"},
	{"trace_overhead_pct", "%"},
}

// metric and result are the benchmark's output schema: the last line of
// standard output is one result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one round plus the runtime's accounting around it.
type sample struct {
	roundResult
	allocMB, gcCycles, gcPauseMS float64
}

func runRound(w workload, tr *tracer) sample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := w.round(tr)
	runtime.ReadMemStats(&m1)
	return sample{
		roundResult: r,
		allocMB:     float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		gcCycles:    float64(m1.NumGC - m0.NumGC),
		gcPauseMS:   float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
}

// timedRounds runs rounds until the next one would end past the budget,
// and always at least one.
func timedRounds(w workload, budget time.Duration) []sample {
	start := time.Now()
	var out []sample
	for {
		s := runRound(w, nil)
		out = append(out, s)
		if time.Since(start)+s.wall > budget {
			return out
		}
	}
}

// measure runs one workload: setups, the untraced timed rounds, and with
// traced set as many traced rounds again. It returns the result and the
// human-readable lines that go with it.
func measure(name string, seed int64, budget time.Duration, traced bool, sc scale, outDir string) (result, []string, error) {
	w, err := newWorkload(name, seed, sc)
	if err != nil {
		return result{}, nil, err
	}
	var setups []float64
	for i := 0; i < sc.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return result{}, nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	plain := timedRounds(w, budget)
	var tracedRounds []sample
	var tr *tracer
	if traced {
		tr = newTracer()
		for range plain {
			tracedRounds = append(tracedRounds, runRound(w, tr))
		}
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	var lines []string
	first := map[string]dieOut{}
	for _, s := range append(append([]sample(nil), plain...), tracedRounds...) {
		for _, op := range s.ops {
			res.Attempted++
			err := op.err
			if prev, seen := first[op.key]; err == nil && seen && prev != op.out {
				err = fmt.Errorf("%s: output changed between rounds or passes: %+v, then %+v", op.key, prev, op.out)
			} else if err == nil {
				first[op.key] = op.out
			}
			if err != nil {
				res.Failed++
				if res.Failed <= 5 {
					lines = append(lines, "FAIL "+err.Error())
				}
			}
		}
	}
	res.Correct = res.Failed == 0
	lines = append(lines, fmt.Sprintf("%s seed %d: %d setups, %d untraced rounds, %d traced rounds, %d/%d ops failed",
		name, seed, len(setups), len(plain), len(tracedRounds), res.Failed, res.Attempted))

	set := func(defs []metricDef, name string, v float64) {
		for _, d := range defs {
			if d.name == name {
				res.Metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
		panic("undeclared metric " + name)
	}
	if !traced {
		for k, v := range e2eValues(setups, plain) {
			set(e2eMetrics, k, v)
		}
		return res, append(lines, latencyLine(name, plain)), nil
	}

	spans, counters := tr.finish()
	vals, self := layerValues(spans, counters, tracedRounds)
	vals["trace_overhead_pct"] = 100 * (median(walls(tracedRounds)) - median(walls(plain))) / median(walls(plain))
	for k, v := range vals {
		set(layerMetrics, k, v)
	}
	path, err := writeTrace(outDir, name, seed, spans)
	if err != nil {
		return result{}, nil, err
	}
	lines = append(lines,
		fmt.Sprintf("%s top layers by self time per round: %s", name, topLayers(self, 3)),
		fmt.Sprintf("%s trace: %s (%d spans)", name, path, len(spans)))
	return res, lines, nil
}

func walls(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall.Seconds()
	}
	return out
}

// e2eValues computes the end-to-end metrics of the untraced rounds.
func e2eValues(setups []float64, rounds []sample) map[string]float64 {
	perKey := map[string][]float64{}
	var cells []float64
	for _, s := range rounds {
		for _, op := range s.ops {
			perKey[op.key] = append(perKey[op.key], op.ms)
		}
		cells = append(cells, float64(s.cells))
	}
	var keyMedians []float64
	for _, v := range perKey {
		keyMedians = append(keyMedians, median(v))
	}
	return map[string]float64{
		"setup_s":        median(setups),
		"wall_s":         median(walls(rounds)),
		"die_ms_geomean": geomean(keyMedians),
		"cells":          median(cells),
	}
}

// latencyLine reports throughput and the latency median and tail over
// every operation, with the sample count; the tail is the highest
// percentile above the median that leaves at least ten operations beyond
// it.
func latencyLine(name string, rounds []sample) string {
	var all []float64
	for _, s := range rounds {
		for _, op := range s.ops {
			all = append(all, op.ms)
		}
	}
	line := fmt.Sprintf("%s %d ops, %.1f ops/s, latency p50 %.3f ms", name, len(all),
		float64(len(all))/sum(walls(rounds)), median(all))
	if p := tailPercentile(len(all)); p > 50 {
		line += fmt.Sprintf(", p%g %.3f ms", p, percentile(all, p))
	}
	return line
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// layerValues computes the per-layer metrics of the traced rounds, per
// round, and the self time of each layer per round.
func layerValues(spans []span, counters map[string]float64, rounds []sample) (map[string]float64, map[string]float64) {
	n := float64(len(rounds))
	dur, self, calls := map[string]float64{}, map[string]float64{}, map[string]float64{}
	durs := map[string][]float64{}
	uncovered := 0.0
	for _, s := range spans {
		dur[s.Name] += s.dur() / 1e3
		self[s.Name] += s.Self / 1e3
		calls[s.Name]++
		durs[s.Name] = append(durs[s.Name], s.dur()/1e3)
		if s.Name == "die" && s.dur() > 0 {
			uncovered = max(uncovered, 100*s.Self/s.dur())
		}
	}
	p50 := func(name string) float64 {
		if len(durs[name]) == 0 {
			return 0
		}
		return median(durs[name])
	}
	v := map[string]float64{
		"netgen.ms":            dur["netgen.generate"] / n,
		"place.ms":             dur["place.place"] / n,
		"place.repeaters_ms":   dur["place.repeaters"] / n,
		"scan.functional_ms":   dur["scan.functional"] / n,
		"sta.prepare_ms":       dur["sta.analyze"] / n,
		"sta.prepare_calls":    calls["sta.analyze"] / n,
		"faults.ms":            dur["faults.lists"] / n,
		"wcm.self_ms":          self["wcm.run"] / n,
		"wcm.refresh_ms":       dur["refresh.wcm"] / n,
		"verify.refresh_ms":    dur["refresh.verify"] / n,
		"refine.refresh_ms":    dur["refresh.refine"] / n,
		"refresh.calls":        (calls["refresh.wcm"] + calls["refresh.verify"] + calls["refresh.refine"]) / n,
		"verify.self_ms":       self["verify.plan"] / n,
		"verify.calls":         calls["verify.plan"] / n,
		"signoff.ms":           dur["signoff"] / n,
		"refine.ms":            dur["refine.run"] / n,
		"refine.admit_ratio":   counters["refine.admitted"] / max(counters["refine.proposed"], 1),
		"http.post_ms_p50":     p50("http.post"),
		"http.get_ms_p50":      p50("http.get"),
		"http.polls_per_job":   calls["http.get"] / max(calls["job"], 1),
		"service.queue_ms_p50": p50("service.queue"),
		"service.run_ms_p50":   p50("service.run"),
		"trace.uncovered_pct":  uncovered,
	}
	for _, k := range []string{"faults.count", "netlist.gates", "wcm.nodes", "wcm.edges", "wcm.overlap_edges",
		"wcm.merges", "refine.overrun_ms", "refine.steps", "refine.steps.local", "refine.steps.anneal",
		"refine.steps.bnb", "refine.steps.lns", "refine.proposed", "refine.cells_saved"} {
		v[k] = counters[k] / n
	}
	extra := map[string]float64{}
	for _, s := range rounds {
		v["runtime.alloc_mb"] += s.allocMB / n
		v["runtime.gc_cycles"] += s.gcCycles / n
		v["runtime.gc_pause_ms"] += s.gcPauseMS / n
		for k, x := range s.extra {
			extra[k] += x / n
		}
	}
	for _, k := range []string{"cache.hit_ratio", "cache.lookups", "cache.evictions"} {
		v[k] = extra[k]
	}
	layers := layerSelf(spans)
	for k := range layers {
		layers[k] /= n
	}
	// A job's service.run span covers its stages; move their time to the
	// layers that execute them.
	for st, layer := range stageLayers {
		x := extra["service.stage."+st+".ms"]
		v["service.stage."+st+".ms"] = x
		if x > 0 {
			layers[layer] += x
			layers["service"] -= x
		}
	}
	return v, layers
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// entry point it calls. Spans of one die or job share Op; Parent is 0 for a
// root span. Times are microseconds since the tracer started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     string  `json:"op"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"`
}

func (s span) dur() float64 { return s.End - s.Start }

// spanLayers maps span names to the repository module they time. Refresh
// and signoff are the experiments glue (RefreshTiming, CheckTiming). Names
// in parentheses are not layers: a die root's self time is time no layer
// span covers, a job root's is the client waiting (its poll sleeps and the
// other jobs of its burst), and service.queue is a job waiting for a worker.
var spanLayers = map[string]string{
	"die":             "(uncovered)",
	"job":             "(client wait)",
	"netgen.generate": "netgen",
	"place.place":     "place",
	"place.repeaters": "place",
	"scan.functional": "scan",
	"sta.analyze":     "sta",
	"faults.lists":    "faults",
	"wcm.run":         "wcm",
	"refresh.wcm":     "experiments",
	"refresh.verify":  "experiments",
	"refresh.refine":  "experiments",
	"signoff":         "experiments",
	"verify.plan":     "verify",
	"refine.run":      "refine",
	"http.post":       "service",
	"http.get":        "service",
	"service.queue":   "(queued)",
	"service.run":     "service",
}

// tracer records spans and counters in memory; every method is a no-op on
// a nil tracer, which is how the untraced pass runs the same code.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: map[string]float64{}}
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e3 }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name, op string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.us(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Layer: spanLayers[name], Start: now, End: now})
	return len(t.spans)
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.us(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere (the service's
// job timestamps).
func (t *tracer) add(name, op string, parent int, from, to time.Time) {
	if t == nil {
		return
	}
	id := t.start(name, op, parent)
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = t.us(from), t.us(to)
	t.mu.Unlock()
}

// count adds v to a named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// finish computes every span's self time and returns the spans and
// counters. Call it once, after all recording has stopped.
func (t *tracer) finish() ([]span, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	computeSelf(t.spans)
	return t.spans, t.counters
}

// computeSelf sets each span's self time: its duration minus the part of
// its interval covered by at least one child. Children may overlap each
// other (concurrent refreshes inside the refine portfolio) or stick out of
// the parent (server timestamps around client polls); only the union of
// their intervals, clipped to the parent, is subtracted.
func computeSelf(spans []span) {
	children := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.dur() - covered(children[s.ID], s.Start, s.End)
	}
}

// covered returns the length of the union of intervals within [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total, cur := 0.0, lo
	for _, x := range iv {
		from, to := max(x[0], cur), min(x[1], hi)
		if to > from {
			total += to - from
			cur = to
		}
	}
	return total
}

// layerSelf sums self time per layer, in ms.
func layerSelf(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer] += s.Self / 1e3
	}
	return out
}

func isLayer(name string) bool { return !strings.HasPrefix(name, "(") }

// writeTrace writes the spans of one traced run as JSON.
func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// topLayers renders the layers with the most self time, largest first,
// each with its share of the self time of all layers; waits are left out.
func topLayers(self map[string]float64, k int) string {
	type kv struct {
		layer string
		ms    float64
	}
	var all []kv
	total := 0.0
	for l, ms := range self {
		if isLayer(l) {
			total += ms
			all = append(all, kv{l, ms})
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].ms > all[b].ms })
	var parts []string
	for i, x := range all {
		if i == k {
			break
		}
		parts = append(parts, fmt.Sprintf("%s %.1f ms (%.1f%%)", x.layer, x.ms, 100*x.ms/total))
	}
	return strings.Join(parts, ", ")
}

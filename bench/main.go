// Command bench is wcm3d's end-to-end benchmark. It drives four workloads
// through the public entry points (the wcm3d facade and the wcmd service
// handler), checks every output, and prints each metric by name with its
// unit; the last line of standard output is one JSON result.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash bench/run.sh                                  # every workload, seed 1
//	bash bench/run.sh --workload sweep-cold --seed 3   # one workload
//	bash bench/run.sh --trace 1                        # per-layer metrics, spans in bench/out/
//	bash bench/run.sh --repeat 5                       # noise: median and quartiles
//	bash bench/run.sh --repeat 5 --check bench/results/baseline-seed1.json
//
// Each workload runs in a child process (the binary re-executes itself),
// so peak memory and GC state belong to one workload. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload      string
	seed          int64
	seconds       float64
	trace         int
	repeat        int
	check         string
	out           string
	child         bool
	writeExpected string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all of "+strings.Join(workloadNames, ", ")+")")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the die-generation seed and the service job draw (>= 0)")
	fs.Float64Var(&o.seconds, "seconds", 20, "time budget of the timed section; rounds of fixed work run until the next would overrun it (at least one)")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	fs.IntVar(&o.repeat, "repeat", 1, "run each workload this many times and print median and quartiles")
	fs.StringVar(&o.check, "check", "", "baseline result to compare against within the bounds of ./BENCHMARK.json")
	fs.StringVar(&o.out, "out", "bench/out", "directory for traces")
	fs.BoolVar(&o.child, "child", false, "run one workload in this process (used by the parent)")
	fs.StringVar(&o.writeExpected, "write-expected", "", "regenerate the pinned outputs for seeds 1 and 2 into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seed < 0 || o.seconds < 0 || o.repeat < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "bench: need --seed >= 0, --seconds >= 0, --repeat >= 1, --trace 0|1")
		return 2
	}
	if o.workload != "" {
		if _, err := newWorkload(o.workload, o.seed, fullScale); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	switch {
	case o.writeExpected != "":
		if err := writeExpected(o.writeExpected, []int64{1, 2}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	case o.child:
		return child(o, stdout, stderr)
	}
	return parent(o, stdout, stderr)
}

// child runs one workload and prints its lines and result.
func child(o options, stdout, stderr io.Writer) int {
	budget := time.Duration(o.seconds * float64(time.Second))
	res, lines, err := measure(o.workload, o.seed, budget, o.trace == 1, fullScale, o.out)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// parent runs each selected workload in a child process, repeat times
// (interleaved), and prints the summary and the final result.
func parent(o options, stdout, stderr io.Writer) int {
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	defs := e2eMetrics
	if o.trace == 1 {
		defs = layerMetrics
	}
	runs := map[string][]result{}
	for rep := 0; rep < o.repeat; rep++ {
		for _, name := range names {
			r, lines, err := spawn(o, name)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			for _, l := range lines {
				fmt.Fprintln(stdout, l)
			}
			runs[name] = append(runs[name], r)
		}
	}

	// final holds the medians, keyed workload/metric.
	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		for _, r := range runs[name] {
			final.Correct = final.Correct && r.Correct
			final.Attempted += r.Attempted
			final.Failed += r.Failed
		}
		for _, d := range defs {
			var vals []float64
			for _, r := range runs[name] {
				vals = append(vals, r.Metrics[d.name].Value)
			}
			m := metric{Value: median(vals), Unit: d.unit}
			final.Metrics[name+"/"+d.name] = m
			line := fmt.Sprintf("%-12s %-26s %14.4f %s", name, d.name, m.Value, m.Unit)
			if len(vals) > 1 {
				q1, q3 := quartiles(vals)
				line += fmt.Sprintf("   q1 %.4f  q3 %.4f  spread %.2f%%  (n=%d)", q1, q3, 100*(q3-q1)/m.Value, len(vals))
			}
			fmt.Fprintln(stdout, line)
		}
	}

	code := 0
	if o.check != "" {
		ok, lines, err := check(o.check, "BENCHMARK.json", final)
		if err != nil {
			fmt.Fprintln(stderr, "bench: check:", err)
			return 1
		}
		for _, l := range lines {
			fmt.Fprintln(stdout, l)
		}
		if !ok {
			code = 1
		}
	}
	if !final.Correct {
		fmt.Fprintf(stderr, "bench: %d of %d operations failed\n", final.Failed, final.Attempted)
		code = 1
	}
	if len(names) == 1 {
		bare := map[string]metric{}
		for k, m := range final.Metrics {
			bare[metricName(k)] = m
		}
		final.Metrics = bare
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return code
}

// childTimeout bounds one child so a hung workload still ends the run.
const childTimeout = 170 * time.Second

// spawn runs one workload in a child process and returns its result,
// with the child's peak RSS added to an untraced run.
func spawn(o options, name string) (result, []string, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child",
		"-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace),
		"-out", o.out)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	// The child dies with the parent, so killing the benchmark leaves no
	// process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return result{}, nil, fmt.Errorf("child: %w", err)
	}
	var lines []string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		return result{}, nil, errors.New("child printed no result")
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, nil, fmt.Errorf("child result: %w", err)
	}
	if o.trace == 0 {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return result{}, nil, errors.New("no rusage for the child")
		}
		r.Metrics["peak_rss_mb"] = metric{Value: float64(ru.Maxrss) / 1024, Unit: "MB"} // Maxrss is in KiB
	}
	return r, lines[:len(lines)-1], nil
}

// spec is the part of BENCHMARK.json the check reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// check compares medians keyed workload/metric against a baseline result
// of the same shape. A metric worse than the baseline by more than its
// bound, or more failed operations, is a regression.
func check(baselinePath, specPath string, got result) (bool, []string, error) {
	var base result
	var sp spec
	for path, v := range map[string]any{baselinePath: &base, specPath: &sp} {
		b, err := os.ReadFile(path)
		if err != nil {
			return false, nil, err
		}
		if err := json.Unmarshal(b, v); err != nil {
			return false, nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	ok := true
	var lines []string
	keys := make([]string, 0, len(got.Metrics))
	for k := range got.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		bm, inBase := base.Metrics[key]
		name := metricName(key)
		for _, e := range sp.EndToEnd {
			if e.Name != name || !inBase {
				continue
			}
			v := got.Metrics[key].Value
			change := (v - bm.Value) / bm.Value
			if e.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			if change > e.Bound {
				verdict, ok = "REGRESSION", false
			}
			lines = append(lines, fmt.Sprintf("check %-36s base %12.4f  now %12.4f  worse by %+6.2f%% (bound %.0f%%)  %s",
				key, bm.Value, v, 100*change, 100*e.Bound, verdict))
		}
	}
	if got.Failed > base.Failed {
		ok = false
		lines = append(lines, fmt.Sprintf("check failed operations: base %d, now %d  REGRESSION", base.Failed, got.Failed))
	}
	return ok, lines, nil
}

// metricName strips the workload from a workload/metric key.
func metricName(key string) string {
	return key[strings.IndexByte(key, '/')+1:]
}

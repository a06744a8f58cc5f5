package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wcm3d"
	"wcm3d/internal/service"
)

// scale sizes the workloads; the tests run a tiny one.
type scale struct {
	// setups is how many times each workload sets up per run; setup_s is
	// the median.
	setups int
	// warmup dies run the full flow during sweep-cold's setup.
	warmup []string
	sweep  []string
	solve  []string
	refine []string
	// refineBudget is the portfolio's wall budget per die.
	refineBudget time.Duration
	// jobs is the service-mix job count per round, drawn over jobDies ×
	// jobSeeds die keys.
	jobs     int
	jobDies  []string
	jobSeeds int
}

var fullScale = scale{
	setups: 3,
	warmup: family("b11", "b12"),
	// Four dies take about 5 s, so a 20 s run times each one four times.
	sweep: family("b20"),
	solve: []string{"b20/2", "b21/2", "b22/2"},
	// Each refine die uses its whole budget at seed 1; dies whose search
	// ends early would make wall_s track host speed instead.
	refine:       []string{"b20/0", "b21/0", "b22/2"},
	refineBudget: 2 * time.Second,
	// Below the service's 1024 retained finished jobs, so none is pruned
	// while its client still polls it.
	jobs:     1000,
	jobDies:  family("b11", "b12"),
	jobSeeds: 4,
}

// family lists every die of the named circuits ("b11/0" ... "b11/3").
func family(circuits ...string) []string {
	var out []string
	for _, c := range circuits {
		for _, p := range wcm3d.CircuitProfiles(c) {
			out = append(out, fmt.Sprintf("%s/%d", c, p.Die))
		}
	}
	return out
}

func profiles(names []string) ([]wcm3d.Profile, error) {
	ps := make([]wcm3d.Profile, len(names))
	for i, n := range names {
		p, err := wcm3d.ProfileByName(n)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

// opResult is one timed operation: a die flow, a refine or a service job.
type opResult struct {
	key string
	ms  float64
	err error
	// out is compared across every round and both passes; it must not
	// change for a key.
	out dieOut
}

// roundResult is one pass over a workload's fixed work.
type roundResult struct {
	ops   []opResult
	wall  time.Duration
	cells int
	// extra holds per-layer numbers only the round itself can read (the
	// service's counters).
	extra map[string]float64
}

// workload is set up several times, then runs rounds of fixed work.
type workload interface {
	setup() error
	round(tr *tracer) roundResult
}

var workloadNames = []string{"sweep-cold", "solve-warm", "refine-2s", "service-mix"}

func newWorkload(name string, seed int64, sc scale) (workload, error) {
	switch name {
	case "sweep-cold":
		return &sweepCold{seed: seed, sc: sc}, nil
	case "solve-warm":
		return &solveWarm{seed: seed, sc: sc}, nil
	case "refine-2s":
		return &refine2s{seed: seed, sc: sc}, nil
	case "service-mix":
		return &serviceMix{seed: seed, sc: sc}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sweepCold prepares and solves every die from scratch, serially, the way
// a cache-missing wcmd job or a Table II reproduction does.
type sweepCold struct {
	seed int64
	sc   scale
	dies []wcm3d.Profile
}

// setup resolves the die list and runs the flow on the small warm-up dies,
// so lazy initialisation and heap growth happen before timing. A cold sweep
// needs nothing else, so sweep-cold's setup_s is the time of this warm-up.
func (w *sweepCold) setup() error {
	dies, err := profiles(w.sc.sweep)
	if err != nil {
		return err
	}
	warm, err := profiles(w.sc.warmup)
	if err != nil {
		return err
	}
	for _, p := range warm {
		d, err := wcm3d.PrepareDie(p, w.seed)
		if err != nil {
			return err
		}
		if _, err := solve(d, nil, "", 0); err != nil {
			return err
		}
	}
	w.dies = dies
	return nil
}

func (w *sweepCold) round(tr *tracer) roundResult {
	var r roundResult
	start := time.Now()
	for _, p := range w.dies {
		op := opResult{key: p.Name()}
		root := tr.start("die", op.key, 0)
		t0 := time.Now()
		d, err := prepare(p, w.seed, tr, op.key, root)
		var res *wcm3d.MinimizeResult
		if err == nil {
			res, err = solve(d, tr, op.key, root)
		}
		op.ms = ms(time.Since(t0))
		tr.end(root)
		if err == nil {
			op.out = outOf(d, res)
			r.cells += res.AdditionalCells
			err = checkPinned(w.seed, p, op.out)
		}
		op.err = err
		r.ops = append(r.ops, op)
	}
	r.wall = time.Since(start)
	return r
}

// solveWarm re-solves dies prepared in setup: the solver, verifier and
// signoff do the work, netgen and placement none.
type solveWarm struct {
	seed int64
	sc   scale
	dies []*wcm3d.Die
}

func (w *solveWarm) setup() error {
	ps, err := profiles(w.sc.solve)
	if err != nil {
		return err
	}
	dies := make([]*wcm3d.Die, len(ps))
	for i, p := range ps {
		if dies[i], err = wcm3d.PrepareDie(p, w.seed); err != nil {
			return err
		}
	}
	w.dies = dies
	return nil
}

func (w *solveWarm) round(tr *tracer) roundResult {
	var r roundResult
	start := time.Now()
	for _, d := range w.dies {
		op := opResult{key: d.Profile.Name()}
		root := tr.start("die", op.key, 0)
		t0 := time.Now()
		res, err := solve(d, tr, op.key, root)
		op.ms = ms(time.Since(t0))
		tr.end(root)
		if err == nil {
			op.out = outOf(d, res)
			r.cells += res.AdditionalCells
			err = checkPinned(w.seed, d.Profile, op.out)
		}
		op.err = err
		r.ops = append(r.ops, op)
	}
	r.wall = time.Since(start)
	return r
}

// refine2s runs the anytime portfolio at its default budget over greedy
// plans made in setup.
type refine2s struct {
	seed   int64
	sc     scale
	dies   []*wcm3d.Die
	greedy []*wcm3d.MinimizeResult
}

func (w *refine2s) setup() error {
	ps, err := profiles(w.sc.refine)
	if err != nil {
		return err
	}
	w.dies, w.greedy = nil, nil
	for _, p := range ps {
		d, err := wcm3d.PrepareDie(p, w.seed)
		if err != nil {
			return err
		}
		res, err := wcm3d.Minimize(d, wcm3d.MethodOurs, wcm3d.TightTiming)
		if err != nil {
			return err
		}
		if err := checkPinned(w.seed, p, outOf(d, res)); err != nil {
			return err
		}
		w.dies = append(w.dies, d)
		w.greedy = append(w.greedy, res)
	}
	return nil
}

func (w *refine2s) round(tr *tracer) roundResult {
	var r roundResult
	ro := wcm3d.RefineOptions{Budget: w.sc.refineBudget, Seed: w.seed}
	refined := make([]*wcm3d.RefineResult, len(w.dies))
	start := time.Now()
	for i, d := range w.dies {
		op := opResult{key: d.Profile.Name()}
		root := tr.start("die", op.key, 0)
		t0 := time.Now()
		refined[i], op.err = refineDie(context.Background(), d, w.greedy[i], ro, tr, op.key, root)
		op.ms = ms(time.Since(t0))
		tr.end(root)
		tr.count("refine.overrun_ms", op.ms-ms(w.sc.refineBudget))
		r.ops = append(r.ops, op)
	}
	r.wall = time.Since(start)
	// Certification is the benchmark's own check, outside the timed part.
	for i := range r.ops {
		if r.ops[i].err == nil {
			r.ops[i].err = certifyRefined(w.dies[i], w.greedy[i], refined[i])
			r.cells += refined[i].AdditionalCells
		}
	}
	return r
}

// serviceMix drives an in-process wcmd the way the repository's own client
// does (submitRetry and terminalState in cmd/wcmd's crash tests): each of
// nproc clients takes the next burst of jobs, submits it back to back, then
// waits for each job in turn, polling it every 50 ms until it is terminal.
// Every job is the request of docs/SERVICE.md's quick start; only its die
// key is drawn.
type serviceMix struct {
	seed int64
	sc   scale
	reqs []service.JobRequest
	// want is each die key's cell count from a direct, certified
	// PrepareDie+Minimize.
	want map[string]int
}

const (
	// inFlight jobs are split into one burst per client: the crash tests'
	// 50-job burst, under the default 64-deep queue, so no submission is
	// turned away.
	inFlight  = 50
	pollEvery = 50 * time.Millisecond
)

func jobKey(profile string, seed int64) string { return fmt.Sprintf("%s@%d", profile, seed) }

// setup draws the job list from the seed and computes and certifies every
// key's expected plan directly. Die seeds are seed+1 ... seed+jobSeeds.
func (w *serviceMix) setup() error {
	want := map[string]int{}
	for _, name := range w.sc.jobDies {
		p, err := wcm3d.ProfileByName(name)
		if err != nil {
			return err
		}
		for s := int64(1); s <= int64(w.sc.jobSeeds); s++ {
			d, err := wcm3d.PrepareDie(p, w.seed+s)
			if err != nil {
				return err
			}
			res, err := solve(d, nil, "", 0)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, w.seed+s, err)
			}
			want[jobKey(name, w.seed+s)] = res.AdditionalCells
		}
	}
	rng := rand.New(rand.NewSource(w.seed))
	reqs := make([]service.JobRequest, w.sc.jobs)
	for i := range reqs {
		reqs[i] = service.JobRequest{
			Profile: w.sc.jobDies[rng.Intn(len(w.sc.jobDies))],
			Seed:    w.seed + 1 + rng.Int63n(int64(w.sc.jobSeeds)),
			Method:  "ours",
			Timing:  "tight",
			ATPG:    true,
			Budget:  "reduced",
		}
	}
	w.want, w.reqs = want, reqs
	return nil
}

func (w *serviceMix) round(tr *tracer) roundResult {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		_, _ = svc.Shutdown(context.Background()) // every job is terminal; nothing to drain
	}()
	before := svc.Snapshot()
	ops := make([]opResult, len(w.reqs))
	clients := runtime.NumCPU()
	size := max(1, inFlight/clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := int(next.Add(int64(size))) - size; lo < len(ops); lo = int(next.Add(int64(size))) - size {
				w.burst(ts.Client(), ts.URL, ops[lo:min(lo+size, len(ops))], lo, tr)
			}
		}()
	}
	wg.Wait()
	r := roundResult{ops: ops, wall: time.Since(start), extra: serviceDeltas(before, svc.Snapshot())}
	for _, op := range ops {
		r.cells += op.out.Cells
	}
	return r
}

// serviceDeltas reads the service's cache and stage counters over a round.
func serviceDeltas(a, b service.MetricsSnapshot) map[string]float64 {
	hits := float64(b.Cache.Hits - a.Cache.Hits)
	lookups := hits + float64(b.Cache.Misses-a.Cache.Misses)
	out := map[string]float64{
		"cache.lookups":   lookups,
		"cache.hit_ratio": hits / max(lookups, 1),
		"cache.evictions": float64(b.Cache.Evictions - a.Cache.Evictions),
	}
	for st := range stageLayers {
		out["service.stage."+st+".ms"] = b.LatencyMS[st].SumMS - a.LatencyMS[st].SumMS
	}
	return out
}

// stageLayers maps the job stages service-mix exercises to the layer each
// one runs in.
var stageLayers = map[string]string{
	"prepare":  "prepare",
	"minimize": "wcm",
	"signoff":  "experiments",
	"atpg":     "atpg",
}

// burst submits jobs first..first+len(ops)-1 back to back, then waits for
// each in turn. A job's latency runs from its POST to the poll that sees it
// terminal.
func (w *serviceMix) burst(c *http.Client, url string, ops []opResult, first int, tr *tracer) {
	type pending struct {
		tag  string
		t0   time.Time
		root int
		st   service.JobStatus
	}
	ps := make([]pending, len(ops))
	for i := range ops {
		req := w.reqs[first+i]
		ops[i].key = jobKey(req.Profile, req.Seed)
		p := &ps[i]
		p.tag = fmt.Sprintf("job-%d", first+i)
		body, err := json.Marshal(req)
		if err == nil {
			p.t0 = time.Now()
			p.root = tr.start("job", p.tag, 0)
			p.st, err = call(c, http.MethodPost, url+"/v1/jobs", body, tr, "http.post", p.tag, p.root)
		}
		ops[i].err = err
	}
	for i := range ops {
		p := &ps[i]
		if ops[i].err != nil {
			tr.end(p.root)
			continue
		}
		var err error
		for {
			if p.st, err = call(c, http.MethodGet, url+"/v1/jobs/"+p.st.ID, nil, tr, "http.get", p.tag, p.root); err != nil ||
				(p.st.State != service.StateQueued && p.st.State != service.StateRunning) {
				break
			}
			time.Sleep(pollEvery)
		}
		ops[i].ms = ms(time.Since(p.t0))
		tr.end(p.root)
		if err != nil {
			ops[i].err = err
			continue
		}
		st := p.st
		if st.StartedAt != nil && st.FinishedAt != nil {
			tr.add("service.queue", p.tag, p.root, st.SubmittedAt, *st.StartedAt)
			tr.add("service.run", p.tag, p.root, *st.StartedAt, *st.FinishedAt)
		}
		ops[i].out.Cells, ops[i].err = w.checkJob(st, ops[i].key)
	}
}

// checkJob returns a finished job's cells, or why the job is wrong.
func (w *serviceMix) checkJob(st service.JobStatus, key string) (int, error) {
	rep := st.Result
	switch {
	case st.State != service.StateDone || rep == nil:
		return 0, fmt.Errorf("job %s (%s) ended %s: %s", st.ID, key, st.State, st.Error)
	case rep.AdditionalCells != w.want[key]:
		return 0, fmt.Errorf("job %s (%s): %d cells, direct Minimize gives %d", st.ID, key, rep.AdditionalCells, w.want[key])
	case !rep.TimingMet:
		return 0, fmt.Errorf("job %s (%s): tight-timing signoff violated", st.ID, key)
	case rep.StuckAt == nil:
		return 0, fmt.Errorf("job %s (%s): no ATPG report", st.ID, key)
	}
	return rep.AdditionalCells, nil
}

// call does one request against wcmd and decodes the job status; any
// non-2xx response is an error.
func call(c *http.Client, method, url string, body []byte, tr *tracer, name, op string, parent int) (service.JobStatus, error) {
	sp := tr.start(name, op, parent)
	defer tr.end(sp)
	var st service.JobStatus
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return st, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("%s %s: decoding job status: %w", method, url, err)
	}
	return st, nil
}

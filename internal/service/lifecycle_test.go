package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"wcm3d"
)

// TestCancelDoesNotPoisonWaiter is the cancellation-poisoning regression:
// job A starts a preparation, job B parks on the same in-flight cache
// entry, and cancelling A must not cancel B. Before the detached
// preparation context, the prepare ran on A's context, so A's cancel
// failed B with context.Canceled and B was mislabeled canceled.
func TestCancelDoesNotPoisonWaiter(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	cfg := hookConfig(t, 2, 8, func(ctx context.Context, spec DieSpec) error {
		entered <- struct{}{}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	svc, ts := newTestServer(t, cfg)

	_, a, _ := postJob(t, ts, `{"profile":"b11/0","seed":1}`)
	<-entered // A's preparation is in flight
	_, b, _ := postJob(t, ts, `{"profile":"b11/0","seed":1}`)
	// B is parked on A's entry once the cache registers its hit.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Metrics().CacheHits.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("job B never reached the cache")
		}
		time.Sleep(time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+a.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fin := waitJob(t, ts, a.ID); fin.State != StateCanceled {
		t.Fatalf("canceled job A ended %s: %s", fin.State, fin.Error)
	}

	// The preparation must still be running for B — releasing it must
	// complete B successfully.
	close(release)
	if fin := waitJob(t, ts, b.ID); fin.State != StateDone {
		t.Fatalf("innocent waiter B ended %s: %s (poisoned by A's cancel)", fin.State, fin.Error)
	}
	m := svc.Snapshot()
	if m.Cache.Misses != 1 || m.Cache.Hits != 1 || m.Cache.Aborts != 0 {
		t.Errorf("cache metrics = %+v, want 1 miss / 1 hit / 0 aborts", m.Cache)
	}
}

// TestLastWaiterAbortsPrepare: when every job interested in an in-flight
// preparation goes away, the preparation is aborted and the entry dropped,
// so the next request starts a fresh one.
func TestLastWaiterAbortsPrepare(t *testing.T) {
	entered := make(chan struct{}, 8)
	aborted := make(chan struct{}, 8)
	cfg := hookConfig(t, 1, 4, func(ctx context.Context, spec DieSpec) error {
		entered <- struct{}{}
		<-ctx.Done()
		aborted <- struct{}{}
		return ctx.Err()
	})
	svc, ts := newTestServer(t, cfg)

	_, st, _ := postJob(t, ts, `{"profile":"b11/0","seed":1}`)
	<-entered
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fin := waitJob(t, ts, st.ID); fin.State != StateCanceled {
		t.Fatalf("job ended %s: %s", fin.State, fin.Error)
	}
	select {
	case <-aborted:
	case <-time.After(10 * time.Second):
		t.Fatal("abandoned preparation was never aborted")
	}
	if got := svc.Metrics().CacheAborts.Load(); got != 1 {
		t.Errorf("cache aborts = %d, want 1", got)
	}

	// The aborted entry must be gone: a new request re-prepares.
	_, st2, _ := postJob(t, ts, `{"profile":"b11/0","seed":1}`)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("next request did not start a fresh preparation")
	}
	// Cancel the re-prepare so the cleanup shutdown drains immediately.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st2.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitJob(t, ts, st2.ID)
}

// TestRetentionTTL: finished jobs older than RetentionTTL are pruned by
// the sweep and pruned jobs 404.
func TestRetentionTTL(t *testing.T) {
	cfg := hookConfig(t, 2, 8, nil)
	cfg.RetentionTTL = time.Minute
	svc, ts := newTestServer(t, cfg)
	var ids []string
	for i := 0; i < 3; i++ {
		_, st, _ := postJob(t, ts, fmt.Sprintf(`{"profile":"b11/0","seed":%d}`, i+1))
		waitJob(t, ts, st.ID)
		ids = append(ids, st.ID)
	}

	svc.mu.Lock()
	svc.gcLocked(time.Now())
	svc.mu.Unlock()
	if got := svc.Snapshot().Jobs.Retained; got != 3 {
		t.Fatalf("fresh jobs pruned early: retained = %d, want 3", got)
	}

	svc.mu.Lock()
	svc.gcLocked(time.Now().Add(2 * time.Minute))
	svc.mu.Unlock()
	m := svc.Snapshot()
	if m.Jobs.Retained != 0 || m.Jobs.Pruned != 3 {
		t.Fatalf("after TTL sweep: retained=%d pruned=%d, want 0/3", m.Jobs.Retained, m.Jobs.Pruned)
	}
	if code := getJSON(t, ts, "/v1/jobs/"+ids[0], nil); code != http.StatusNotFound {
		t.Errorf("pruned job = %d, want 404", code)
	}
}

// TestRetentionCapHoldsUnderLoad is the acceptance check: with retention
// defaults, 10k submit+finish cycles hold the job table at the configured
// cap instead of growing without bound.
func TestRetentionCapHoldsUnderLoad(t *testing.T) {
	cfg := Config{
		Workers:    4,
		QueueDepth: 64,
		Prepare: func(ctx context.Context, spec DieSpec) (*wcm3d.Die, error) {
			return nil, errors.New("synthetic failure: finish instantly")
		},
	}
	svc := New(cfg) // retention defaults: TTL 1h, MaxFinished 1024
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _ = svc.Shutdown(ctx)
	})
	slack := cfg.QueueDepth + cfg.Workers
	total := 0
	for total < 10000 {
		batch := 0
		for batch < cfg.QueueDepth {
			_, err := svc.Submit(JobRequest{Profile: "b11/0", Seed: int64(total + 1)})
			if errors.Is(err, ErrQueueFull) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			total++
			batch++
		}
		deadline := time.Now().Add(30 * time.Second)
		for svc.Metrics().JobsFailed.Load() < int64(total) {
			if time.Now().After(deadline) {
				t.Fatalf("stalled at %d finished of %d submitted", svc.Metrics().JobsFailed.Load(), total)
			}
			time.Sleep(200 * time.Microsecond)
		}
		if got := svc.Snapshot().Jobs.Retained; got > svc.cfg.MaxFinished+slack {
			t.Fatalf("job table grew past the cap: retained = %d after %d cycles", got, total)
		}
	}
	svc.mu.Lock()
	svc.gcLocked(time.Now())
	svc.mu.Unlock()
	m := svc.Snapshot()
	if m.Jobs.Retained != svc.cfg.MaxFinished {
		t.Errorf("retained = %d, want exactly MaxFinished %d", m.Jobs.Retained, svc.cfg.MaxFinished)
	}
	if m.Jobs.Pruned != int64(total-svc.cfg.MaxFinished) {
		t.Errorf("pruned = %d, want %d", m.Jobs.Pruned, total-svc.cfg.MaxFinished)
	}
}

// TestJobsListFilters covers the limit/state query parameters on
// GET /v1/jobs and their validation.
func TestJobsListFilters(t *testing.T) {
	cfg := hookConfig(t, 2, 8, func(ctx context.Context, spec DieSpec) error {
		if spec.Seed == 99 {
			return errors.New("seed 99 always fails")
		}
		return nil
	})
	_, ts := newTestServer(t, cfg)
	var done []string
	for i := 0; i < 3; i++ {
		_, st, _ := postJob(t, ts, fmt.Sprintf(`{"profile":"b11/0","seed":%d}`, i+1))
		waitJob(t, ts, st.ID)
		done = append(done, st.ID)
	}
	_, failed, _ := postJob(t, ts, `{"profile":"b11/0","seed":99}`)
	waitJob(t, ts, failed.ID)

	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if code := getJSON(t, ts, "/v1/jobs?state=done", &list); code != http.StatusOK || len(list.Jobs) != 3 {
		t.Errorf("state=done: code %d, %d jobs, want 3", code, len(list.Jobs))
	}
	if code := getJSON(t, ts, "/v1/jobs?state=failed", &list); code != http.StatusOK ||
		len(list.Jobs) != 1 || list.Jobs[0].ID != failed.ID {
		t.Errorf("state=failed: code %d, jobs %+v", code, list.Jobs)
	}
	if code := getJSON(t, ts, "/v1/jobs?limit=2", &list); code != http.StatusOK || len(list.Jobs) != 2 {
		t.Fatalf("limit=2: code %d, %d jobs", code, len(list.Jobs))
	}
	// limit keeps the most recent entries, still oldest first.
	if list.Jobs[0].ID != done[2] || list.Jobs[1].ID != failed.ID {
		t.Errorf("limit=2 = [%s %s], want [%s %s]", list.Jobs[0].ID, list.Jobs[1].ID, done[2], failed.ID)
	}
	if code := getJSON(t, ts, "/v1/jobs?state=done&limit=1", &list); code != http.StatusOK ||
		len(list.Jobs) != 1 || list.Jobs[0].ID != done[2] {
		t.Errorf("state=done&limit=1: code %d, jobs %+v", code, list.Jobs)
	}
	for _, q := range []string{"?state=bogus", "?limit=-1", "?limit=abc"} {
		if code := getJSON(t, ts, "/v1/jobs"+q, nil); code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", q, code)
		}
	}
}

// postRawSchedule posts without t.Fatal so it is safe off the test
// goroutine.
func postRawSchedule(ts string, body string) (int, string, error) {
	resp, err := http.Post(ts+"/v1/schedules", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw), nil
}

// TestScheduleBackpressure: schedules queue on the job pool, so with one
// worker and one queue slot a third concurrent schedule is bounced with
// 429 and Retry-After and counted as a rejected job.
func TestScheduleBackpressure(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	cfg := hookConfig(t, 1, 1, func(ctx context.Context, spec DieSpec) error {
		entered <- struct{}{}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	svc, ts := newTestServer(t, cfg)

	type result struct {
		code int
		raw  string
		err  error
	}
	admitted := make(chan result, 2)
	post := func(profile string) {
		go func() {
			code, raw, err := postRawSchedule(ts.URL, `{"profiles":["`+profile+`"],"width":4,"budget":"reduced"}`)
			admitted <- result{code, raw, err}
		}()
	}
	post("b11/0")
	<-entered // schedule 1 holds the worker, blocked in preparation
	post("b11/1")
	waitQueued(t, svc, 1) // schedule 2 holds the queue slot

	resp, err := http.Post(ts.URL+"/v1/schedules", "application/json",
		strings.NewReader(`{"profiles":["b11/2"],"width":4,"budget":"reduced"}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third schedule = %d (%s), want 429", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}

	close(release)
	for i := 0; i < 2; i++ {
		r := <-admitted
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("admitted schedule = %d (%s), want 200", r.code, r.raw)
		}
	}
	m := svc.Snapshot()
	if h := m.LatencyMS["schedule"]; m.Jobs.Rejected != 1 || h.Count != 2 || h.OK != 2 {
		t.Errorf("jobs.rejected = %d, schedule latency = %+v; want 1 rejected / 2 ok", m.Jobs.Rejected, h)
	}
}

// TestJobTimeout: a job's timeout_ms bounds its execution; the job is
// canceled at the deadline and the aborted prepare stage still lands in
// the latency histograms under the canceled outcome.
func TestJobTimeout(t *testing.T) {
	cfg := hookConfig(t, 1, 4, func(ctx context.Context, spec DieSpec) error {
		<-ctx.Done()
		return ctx.Err()
	})
	svc, ts := newTestServer(t, cfg)
	code, st, raw := postJob(t, ts, `{"profile":"b11/0","seed":1,"timeout_ms":30}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	fin := waitJob(t, ts, st.ID)
	if fin.State != StateCanceled || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("timed-out job = %s (%s), want canceled on deadline", fin.State, fin.Error)
	}
	m := svc.Snapshot()
	if h := m.LatencyMS["prepare"]; h.Count != 1 || h.Canceled != 1 || h.OK != 0 {
		t.Errorf("prepare histogram = %+v, want 1 canceled observation", h)
	}
	if h := m.LatencyMS["total"]; h.Canceled != 1 {
		t.Errorf("total histogram = %+v, want 1 canceled observation", h)
	}

	// Validation: negative timeout is a clean 400 on both endpoints.
	if code, _, _ := postJob(t, ts, `{"profile":"b11/0","timeout_ms":-5}`); code != http.StatusBadRequest {
		t.Errorf("negative job timeout = %d, want 400", code)
	}
	if code, raw, err := postRawSchedule(ts.URL, `{"circuit":"b11","width":8,"timeout_ms":-5}`); err != nil || code != http.StatusBadRequest {
		t.Errorf("negative schedule timeout = %d (%s, %v), want 400", code, raw, err)
	}
}

// TestStageOutcomeMetrics: failed runs no longer vanish from the stage
// latency histograms — a failing preparation is observed under the failed
// outcome.
func TestStageOutcomeMetrics(t *testing.T) {
	cfg := hookConfig(t, 1, 4, func(ctx context.Context, spec DieSpec) error {
		return errors.New("injected prepare failure")
	})
	svc, ts := newTestServer(t, cfg)
	_, st, _ := postJob(t, ts, `{"profile":"b11/0","seed":1}`)
	if fin := waitJob(t, ts, st.ID); fin.State != StateFailed {
		t.Fatalf("job = %+v, want failed", fin)
	}
	m := svc.Snapshot()
	if h := m.LatencyMS["prepare"]; h.Count != 1 || h.Failed != 1 || h.OK != 0 {
		t.Errorf("prepare histogram = %+v, want the failure observed", h)
	}
	if h := m.LatencyMS["total"]; h.Count != 1 || h.Failed != 1 {
		t.Errorf("total histogram = %+v, want the failure observed", h)
	}
}

// TestChaosLifecycle drives submit, cancel, list, metrics, schedules,
// retention GC and shutdown concurrently against a fault-injecting
// Prepare (instant, slow, failing and blocking behaviors mixed by seed),
// then checks the lifecycle invariants. Seeded, and run under -race in CI
// as the service-stress step.
func TestChaosLifecycle(t *testing.T) {
	die := sharedDie(t)
	cfg := Config{
		Workers:       4,
		QueueDepth:    32,
		CacheCapacity: 4,
		RetentionTTL:  40 * time.Millisecond,
		MaxFinished:   16,
		GCInterval:    5 * time.Millisecond,
		MaxTimeout:    2 * time.Second,
		Prepare: func(ctx context.Context, spec DieSpec) (*wcm3d.Die, error) {
			switch spec.Seed % 4 {
			case 1: // slow
				select {
				case <-time.After(2 * time.Millisecond):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			case 2: // failing
				return nil, errors.New("injected fault")
			case 3: // blocking until abandoned
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return die, nil
		},
	}
	svc := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _ = svc.Shutdown(ctx)
	})

	const goroutines, iters = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < iters; i++ {
				st, err := svc.Submit(JobRequest{
					Profile:   "b11/0",
					Seed:      int64(rng.Intn(16) + 1),
					TimeoutMS: int64(rng.Intn(50) + 1),
				})
				if err == nil && rng.Intn(2) == 0 {
					svc.Cancel(st.ID)
				}
				switch rng.Intn(16) {
				case 0:
					_, _ = svc.ScheduleStack(context.Background(),
						ScheduleRequest{Profiles: []string{"b11/0"}, Width: 4, Seed: 4, Budget: "reduced"})
				case 1:
					svc.Jobs()
				case 2:
					svc.Snapshot()
				case 3:
					svc.jobsAfter(StateDone, "")
				}
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, st := range svc.Jobs() {
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
		default:
			t.Errorf("job %s left non-terminal: %s", st.ID, st.State)
		}
	}
	m := svc.Snapshot()
	if got := m.Jobs.Done + m.Jobs.Failed + m.Jobs.Canceled; got != m.Jobs.Queued {
		t.Errorf("job accounting: queued=%d but done+failed+canceled=%d", m.Jobs.Queued, got)
	}
	if m.Jobs.Retained > cfg.MaxFinished+cfg.Workers+cfg.QueueDepth {
		t.Errorf("retention lost control: %d jobs retained", m.Jobs.Retained)
	}
	if m.Jobs.Queued == 0 {
		t.Error("chaos run submitted nothing")
	}
}

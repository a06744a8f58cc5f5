package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func postSchedule(t *testing.T, ts *httptest.Server, body string) (int, *ScheduleReport, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/schedules", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var rep ScheduleReport
	_ = json.Unmarshal(raw, &rep)
	return resp.StatusCode, &rep, string(raw)
}

// TestScheduleEndpoint drives POST /v1/schedules end to end over the
// Prepare hook: the report must be structurally valid, the die cache must
// absorb the repeat request, and the schedule latency must land in
// /metrics.
func TestScheduleEndpoint(t *testing.T) {
	var prepares atomic.Int64
	svc, ts := newTestServer(t, hookConfig(t, 2, 8, func(ctx context.Context, spec DieSpec) error {
		prepares.Add(1)
		return nil
	}))

	code, rep, raw := postSchedule(t, ts, `{"profiles":["b11/0","b11/1"],"width":8,"budget":"reduced"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if rep.Stack != "custom" || rep.Method != "ours" || rep.Timing != "tight" || rep.Seed != 1 {
		t.Errorf("defaults not applied: %s", raw)
	}
	if len(rep.Dies) != 2 {
		t.Fatalf("got %d dies, want 2", len(rep.Dies))
	}
	for _, d := range rep.Dies {
		if d.Patterns <= 0 || len(d.Designs) == 0 {
			t.Errorf("die %s missing patterns/designs: %+v", d.Die.Name, d)
		}
	}
	s := rep.Schedule
	if s == nil {
		t.Fatalf("no schedule in report: %s", raw)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
	if s.TotalWidth != 8 || s.MakespanCycles > s.SerialCycles || s.MakespanCycles <= 0 {
		t.Errorf("schedule = %+v", s)
	}
	if prepares.Load() != 2 {
		t.Errorf("prepares = %d, want 2", prepares.Load())
	}

	// The repeat schedule must ride the prepared-die cache.
	if code, _, raw := postSchedule(t, ts, `{"profiles":["b11/0","b11/1"],"width":8,"budget":"reduced"}`); code != http.StatusOK {
		t.Fatalf("repeat status %d: %s", code, raw)
	}
	if prepares.Load() != 2 {
		t.Errorf("repeat schedule re-prepared dies: %d prepares", prepares.Load())
	}

	var snap MetricsSnapshot
	if code := getJSON(t, ts, "/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if h := snap.LatencyMS["schedule"]; h.Count != 2 || h.OK != 2 || h.Failed != 0 {
		t.Errorf("schedule latency = %+v, want 2 ok", h)
	}
	_ = svc
}

func TestScheduleValidation(t *testing.T) {
	var prepares atomic.Int64
	svc, ts := newTestServer(t, hookConfig(t, 1, 4, func(ctx context.Context, spec DieSpec) error {
		prepares.Add(1)
		return nil
	}))
	many := make([]string, maxJobDies+1)
	for i := range many {
		many[i] = `"b11/0"`
	}
	overCap := `{"profiles":[` + strings.Join(many, ",") + `],"width":8}`
	cases := []string{
		`{"width":8}`, // no stack
		`{"circuit":"b11","profiles":["b11/0"],"width":8}`, // both forms
		`{"circuit":"b99","width":8}`,                      // unknown circuit
		`{"profiles":["b11/9"],"width":8}`,                 // bad profile
		`{"circuit":"b11"}`,                                // missing width
		`{"circuit":"b11","width":8,"method":"mystery"}`,   // bad method
		`{"circuit":"b11","width":8,"timing":"sideways"}`,  // bad timing
		`{"circuit":"b11","width":8,"budget":"maximal"}`,   // bad budget
		`{"circuit":"b11","width":8,"bogus":true}`,         // unknown field
		overCap, // more dies than a job may select
		`not json`,
	}
	for _, body := range cases {
		code, _, raw := postSchedule(t, ts, body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", body, code, raw)
		}
	}
	// Validation rejections never reach the pipeline: no run is timed and
	// no die is prepared.
	if h := svc.Snapshot().LatencyMS["schedule"]; h.Count != 0 {
		t.Errorf("validation failures counted as schedule runs: %+v", h)
	}
	if got := prepares.Load(); got != 0 {
		t.Errorf("validation failures prepared %d dies", got)
	}
}

func TestScheduleAfterShutdown(t *testing.T) {
	svc, ts := newTestServer(t, hookConfig(t, 1, 4, nil))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, _, raw := postSchedule(t, ts, `{"circuit":"b11","width":8,"budget":"reduced"}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503: %s", code, raw)
	}
}

// TestScheduleShutdownDeadline: a schedule blocked in preparation is a pool
// task, so Shutdown's drain deadline cancels it and the client gets a
// prompt 503 instead of a run that outlives the daemon.
func TestScheduleShutdownDeadline(t *testing.T) {
	entered := make(chan struct{}, 1)
	svc, ts := newTestServer(t, hookConfig(t, 1, 4, func(ctx context.Context, spec DieSpec) error {
		entered <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	}))
	type result struct {
		code int
		raw  string
		err  error
	}
	answered := make(chan result, 1)
	go func() {
		code, raw, err := postRawSchedule(ts.URL, `{"profiles":["b11/0"],"width":4,"budget":"reduced"}`)
		answered <- result{code, raw, err}
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := svc.Shutdown(ctx); err == nil {
		t.Fatal("shutdown drained a schedule blocked until cancellation")
	}
	select {
	case r := <-answered:
		if r.err != nil || r.code != http.StatusServiceUnavailable {
			t.Fatalf("schedule = %d (%s, %v), want 503", r.code, r.raw, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("schedule still running after Shutdown returned")
	}
	if h := svc.Snapshot().LatencyMS["schedule"]; h.Canceled != 1 {
		t.Errorf("schedule latency = %+v, want 1 canceled", h)
	}
}

// blockWorker submits a job whose preparation holds the only worker until
// release closes, and waits until it runs.
func blockWorker(t *testing.T, svc *Service) {
	t.Helper()
	st, err := svc.Submit(JobRequest{Profile: "b11/3", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for cur, _ := svc.Job(st.ID); cur.State != StateRunning; cur, _ = svc.Job(st.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("blocker stuck in %s", cur.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitQueued waits until the pool holds n queued tasks.
func waitQueued(t *testing.T, svc *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for svc.Snapshot().Queue.Depth != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", svc.Snapshot().Queue.Depth, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScheduleTimeoutStartsAtPickup: like a job's, a schedule's timeout_ms
// starts when a worker picks it up, so time spent queued behind other work
// does not eat into it.
func TestScheduleTimeoutStartsAtPickup(t *testing.T) {
	release := make(chan struct{})
	svc, ts := newTestServer(t, hookConfig(t, 1, 4, func(ctx context.Context, spec DieSpec) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}))
	blockWorker(t, svc)
	answered := make(chan string, 1)
	go func() {
		code, raw, err := postRawSchedule(ts.URL, `{"profiles":["b11/0"],"width":4,"budget":"reduced","timeout_ms":1000}`)
		answered <- fmt.Sprintf("%d %s %v", code, raw, err)
	}()
	waitQueued(t, svc, 1)
	time.Sleep(1200 * time.Millisecond) // queued past its whole timeout
	close(release)
	if got := <-answered; !strings.HasPrefix(got, "200 ") {
		t.Fatalf("schedule queued past its timeout = %.200s, want 200", got)
	}
}

// TestScheduleCallerGoneWhileQueued: a caller that leaves while its
// schedule is queued frees the queue slot, and the run never starts.
func TestScheduleCallerGoneWhileQueued(t *testing.T) {
	release := make(chan struct{})
	var scheduled atomic.Int64
	svc, ts := newTestServer(t, hookConfig(t, 1, 1, func(ctx context.Context, spec DieSpec) error {
		if spec.Name == "b11/Die0" {
			scheduled.Add(1)
		}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}))
	blockWorker(t, svc)
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan error, 1)
	go func() {
		_, err := svc.ScheduleStack(ctx, ScheduleRequest{Profiles: []string{"b11/0"}, Width: 4, Budget: "reduced"})
		returned <- err
	}()
	waitQueued(t, svc, 1)
	cancel()
	if err := <-returned; !errors.Is(err, context.Canceled) {
		t.Fatalf("ScheduleStack = %v, want context.Canceled", err)
	}
	close(release)
	waitQueued(t, svc, 0)
	// The next job runs after the skipped schedule on the one worker, so
	// once it is done the schedule has had its turn.
	next, err := svc.Submit(JobRequest{Profile: "b11/1"})
	if err != nil {
		t.Fatalf("queue slot not freed: %v", err)
	}
	waitJob(t, ts, next.ID)
	if h := svc.Snapshot().LatencyMS["schedule"]; scheduled.Load() != 0 || h.Count != 0 {
		t.Fatalf("abandoned schedule ran: %d prepares, latency %+v", scheduled.Load(), h)
	}
}

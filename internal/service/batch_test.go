package service

// Tests for multi-die jobs, submitted to POST /v1/jobs with a die
// selector: lifecycle over HTTP, validation, admission control shared with
// single-die jobs, cancellation, per-die failure isolation, journal
// events, crash recovery via Recover, and their exclusion from
// work-stealing.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// diesDone counts a multi-die job's finished dies.
func diesDone(st JobStatus) int {
	n := 0
	for _, d := range st.Dies {
		if d.State == BatchDieDone {
			n++
		}
	}
	return n
}

func TestBatchHTTPLifecycle(t *testing.T) {
	svc, ts := newTestServer(t, hookConfig(t, 2, 8, nil))
	code, st, raw := postJob(t, ts, `{"circuit":"b11"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, raw)
	}
	if !strings.HasPrefix(st.ID, "b-") || len(st.Dies) != 4 {
		t.Fatalf("submit status = %+v", st)
	}
	fin := waitJob(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job ended %s (%s)", fin.State, fin.Error)
	}
	if diesDone(fin) != 4 || fin.Result != nil {
		t.Fatalf("progress = %d of 4 dies done, result %v", diesDone(fin), fin.Result)
	}
	for _, d := range fin.Dies {
		if d.ReusedFFs == 0 && d.AdditionalCells == 0 {
			t.Fatalf("die %s has no plan numbers", d.Die)
		}
	}

	// A single-die job carries a result and no per-die rows; the listing
	// holds both jobs.
	_, one, _ := postJob(t, ts, `{"profile":"b11/0"}`)
	if got := waitJob(t, ts, one.ID); got.Dies != nil || got.Result == nil {
		t.Fatalf("single-die job = %+v", got)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if code := getJSON(t, ts, "/v1/jobs", &list); code != http.StatusOK || len(list.Jobs) != 2 {
		t.Fatalf("list: code %d, %d jobs", code, len(list.Jobs))
	}

	// The multi-die job counts as one job: one done, one total observation
	// each.
	m := svc.Snapshot()
	if m.Jobs.Done != 2 || m.Jobs.Queued != 2 {
		t.Errorf("job counters = %+v, want 2 queued / 2 done", m.Jobs)
	}
	if m.LatencyMS["total"].Count != 2 || m.LatencyMS["total"].OK != 2 {
		t.Errorf("total latency histogram = %+v", m.LatencyMS["total"])
	}
	if _, ok := m.LatencyMS["batch"]; ok {
		t.Error("metrics still carry a batch stage")
	}
	// The four distinct die keys all went through the shared cache.
	if m.Cache.Misses != 4 {
		t.Errorf("cache misses = %d, want 4", m.Cache.Misses)
	}
}

func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, hookConfig(t, 1, 4, nil))
	for _, body := range []string{
		`{}`,
		`{"all":true,"circuit":"b11"}`,
		`{"circuit":"nope"}`,
		`{"profiles":["b11/9"]}`,
		`{"all":true,"method":"nope"}`,
		`{"all":true,"timing":"sideways"}`,
		`{"all":true,"max_in_flight":2}`, // an unknown field on /v1/jobs
		`{"all":true,"timeout_ms":-1}`,
	} {
		if code, _, raw := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("body %s: status %d (%s), want 400", body, code, raw)
		}
	}
}

// TestJobDieSelectors: POST /v1/jobs takes the die selectors. The job gets
// a "b-" id, reports per-die progress, and isolates die failures: the
// failing die is marked failed, the rest still run, and the job fails
// with a count.
func TestJobDieSelectors(t *testing.T) {
	_, ts := newTestServer(t, hookConfig(t, 1, 4, func(ctx context.Context, spec DieSpec) error {
		if spec.Name == "b11/Die2" {
			return errors.New("injected prepare failure")
		}
		return nil
	}))
	code, st, raw := postJob(t, ts, `{"circuit":"b11"}`)
	if code != http.StatusAccepted || !strings.HasPrefix(st.ID, "b-") || len(st.Dies) != 4 {
		t.Fatalf("submit: %d %s", code, raw)
	}
	fin := waitJob(t, ts, st.ID)
	if fin.State != StateFailed || fin.Error != "1 of 4 dies failed" || fin.Result != nil {
		t.Fatalf("job = %s (%q), result %v; want failed with a die count", fin.State, fin.Error, fin.Result)
	}
	for i, d := range fin.Dies {
		want := BatchDieDone
		if i == 2 {
			want = BatchDieFailed
		}
		if d.State != want {
			t.Fatalf("die %s state %s, want %s", d.Die, d.State, want)
		}
	}
	if !strings.Contains(fin.Dies[2].Error, "injected prepare failure") {
		t.Fatalf("failed die error = %q", fin.Dies[2].Error)
	}
	if diesDone(fin) != 3 {
		t.Fatalf("%d dies done, want 3", diesDone(fin))
	}

	many := make([]string, maxJobDies+1)
	for i := range many {
		many[i] = `"b11/0"`
	}
	for _, body := range []string{
		`{"profile":"b11/0","circuit":"b11"}`,
		`{"netlist":"x","all":true}`,
		`{"profiles":[` + strings.Join(many, ",") + `]}`,
		`{"circuit":"b11","refine":true}`,
		`{"all":true,"spares":{"inbound":1,"outbound":1}}`,
		`{"profiles":["b11/0"],"spares":{}}`,
	} {
		if code, _, raw := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("body %.60s: status %d (%s), want 400", body, code, raw)
		}
	}
	if code, raw := postRaw(t, ts, "/v1/jobs?refine=true", `{"circuit":"b11"}`); code != http.StatusBadRequest {
		t.Errorf("refine query on a multi-die job: status %d (%s), want 400", code, raw)
	}
}

// TestBatchQueueBackpressure: multi-die jobs share the job queue's
// admission control, so a saturated queue bounces them with 429.
func TestBatchQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	svc, ts := newTestServer(t, hookConfig(t, 1, 1, func(ctx context.Context, spec DieSpec) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}))
	defer close(release)

	// One job occupies the single worker, one fills the single queue slot.
	if code, _, raw := postJob(t, ts, `{"profile":"b11/0"}`); code != http.StatusAccepted {
		t.Fatalf("job 1: %d %s", code, raw)
	}
	if code, _, raw := postJob(t, ts, `{"profile":"b11/1"}`); code != http.StatusAccepted {
		t.Fatalf("job 2: %d %s", code, raw)
	}
	code, _, _ := postJob(t, ts, `{"circuit":"b11"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("multi-die job under backpressure: status %d, want 429", code)
	}
	if got := svc.Metrics().JobsRejected.Load(); got != 1 {
		t.Errorf("JobsRejected = %d, want 1", got)
	}
}

func TestBatchCancelQueued(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, hookConfig(t, 1, 8, func(ctx context.Context, spec DieSpec) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}))
	defer close(release)

	// Occupy the single worker so the multi-die job stays queued.
	if code, _, raw := postJob(t, ts, `{"profile":"b11/0"}`); code != http.StatusAccepted {
		t.Fatalf("blocker job: %d %s", code, raw)
	}
	code, st, raw := postJob(t, ts, `{"circuit":"b11"}`)
	if code != http.StatusAccepted {
		t.Fatalf("multi-die job: %d %s", code, raw)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != StateCanceled || len(got.Dies) != 4 {
		t.Fatalf("canceled job = %+v", got)
	}
	for _, d := range got.Dies {
		if d.State != BatchDiePending {
			t.Fatalf("die %s state = %s, want pending (never ran)", d.Die, d.State)
		}
	}
}

// TestJobsListingInterleavesMultiDieJobs: single- and multi-die jobs share
// one id sequence under two prefixes, and GET /v1/jobs lists them in that
// sequence. A cursor tails every new job whatever its prefix, and limit
// mode keeps the most recent submissions.
func TestJobsListingInterleavesMultiDieJobs(t *testing.T) {
	_, ts := newTestServer(t, hookConfig(t, 2, 16, nil))
	type page struct {
		Jobs []JobStatus `json:"jobs"`
		Next string      `json:"next"`
	}
	var ids []string
	cursor := "0"
	for _, body := range []string{
		`{"profile":"b11/0"}`, `{"circuit":"b11"}`, `{"profile":"b11/1"}`, `{"profiles":["b11/2","b11/3"]}`,
	} {
		code, st, raw := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", body, code, raw)
		}
		waitJob(t, ts, st.ID)
		ids = append(ids, st.ID)
		var p page
		if code := getJSON(t, ts, "/v1/jobs?cursor="+cursor, &p); code != http.StatusOK {
			t.Fatalf("tail: status %d", code)
		}
		if len(p.Jobs) != 1 || p.Jobs[0].ID != st.ID {
			t.Fatalf("tail after %s listed %d jobs, want only %s", cursor, len(p.Jobs), st.ID)
		}
		cursor = p.Next
	}
	var p page
	if code := getJSON(t, ts, "/v1/jobs?limit=2", &p); code != http.StatusOK || len(p.Jobs) != 2 {
		t.Fatalf("limit=2: code %d, %d jobs", code, len(p.Jobs))
	}
	if p.Jobs[0].ID != ids[2] || p.Jobs[1].ID != ids[3] {
		t.Fatalf("limit=2 = [%s %s], want [%s %s]", p.Jobs[0].ID, p.Jobs[1].ID, ids[2], ids[3])
	}
	if code := getJSON(t, ts, "/v1/jobs", &p); code != http.StatusOK || len(p.Jobs) != len(ids) {
		t.Fatalf("full list: code %d, %d jobs", code, len(p.Jobs))
	}
	for i, st := range p.Jobs {
		if st.ID != ids[i] {
			t.Fatalf("list position %d = %s, want %s (submission order %v)", i, st.ID, ids[i], ids)
		}
	}
}

// TestBatchPlansMatchJobPlans: a batch die row carries the plan the same
// die gets as a single-die job, on the real pipeline.
func TestBatchPlansMatchJobPlans(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	code, st, raw := postJob(t, ts, `{"circuit":"b11"}`)
	if code != http.StatusAccepted {
		t.Fatalf("batch: %d %s", code, raw)
	}
	fin := waitJob(t, ts, st.ID)
	if fin.State != StateDone || len(fin.Dies) != 4 {
		t.Fatalf("batch ended %s (%s) with %d dies", fin.State, fin.Error, len(fin.Dies))
	}
	for i, d := range fin.Dies {
		code, js, raw := postJob(t, ts, fmt.Sprintf(`{"profile":"b11/%d"}`, i))
		if code != http.StatusAccepted {
			t.Fatalf("job b11/%d: %d %s", i, code, raw)
		}
		jf := waitJob(t, ts, js.ID)
		if jf.State != StateDone {
			t.Fatalf("job b11/%d ended %s: %s", i, jf.State, jf.Error)
		}
		if d.Die != jf.Result.Die.Name || d.ReusedFFs != jf.Result.ReusedFFs || d.AdditionalCells != jf.Result.AdditionalCells {
			t.Errorf("die %s: batch row %d reused / %d cells, job %s %d / %d", d.Die, d.ReusedFFs, d.AdditionalCells,
				jf.Result.Die.Name, jf.Result.ReusedFFs, jf.Result.AdditionalCells)
		}
	}
}

// TestBatchJournalEvents pins the durable write order on the batch path:
// submit journaled before the 202, finish journaled after the run, both
// in the job record family.
func TestBatchJournalEvents(t *testing.T) {
	jl := &memJournal{}
	cfg := hookConfig(t, 2, 8, nil)
	cfg.Journal = jl
	_, ts := newTestServer(t, cfg)
	code, st, raw := postJob(t, ts, `{"circuit":"b11"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	if !jl.has("submit " + st.ID) {
		t.Fatal("submit was accepted before the journal recorded it")
	}
	fin := waitJob(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("batch ended %s", fin.State)
	}
	if !jl.has("finish " + st.ID + " " + StateDone) {
		t.Fatalf("no terminal journal record; events: %v", jl.events)
	}
}

// TestBatchRecovery: pending batches from the WAL re-run to completion,
// finished ones are restored for pollers, and the id sequence advances
// past everything the log had seen.
func TestBatchRecovery(t *testing.T) {
	svc, ts := newTestServer(t, hookConfig(t, 2, 8, nil))
	b11 := JobRequest{Circuit: "b11"}
	requeued, restored, err := svc.Recover(Recovery{
		Jobs: []RecoveredJob{
			{ID: "b-000002", Req: b11, State: StateDone},
			{ID: "b-000005", Req: b11},
		},
	})
	if err != nil || requeued != 1 || restored != 1 {
		t.Fatalf("Recover = (%d, %d, %v), want (1, 1, nil)", requeued, restored, err)
	}
	var st0 JobStatus
	if code := getJSON(t, ts, "/v1/jobs/b-000002", &st0); code != http.StatusOK || st0.State != StateDone {
		t.Fatalf("restored batch = %d %+v", code, st0)
	}
	// Per-die results are not journaled, but a restored done batch must
	// still read as fully completed, not "done, 0 of 4".
	if diesDone(st0) != len(st0.Dies) || len(st0.Dies) != 4 {
		t.Fatalf("restored batch progress = %d/%d, want 4/4", diesDone(st0), len(st0.Dies))
	}
	if fin := waitJob(t, ts, "b-000005"); fin.State != StateDone || diesDone(fin) != 4 {
		t.Fatalf("replayed batch ended %s with %d dies done", fin.State, diesDone(fin))
	}
	// New ids must not collide with recovered ones.
	code, st, raw := postJob(t, ts, `{"circuit":"b11"}`)
	if code != http.StatusAccepted {
		t.Fatalf("post-recovery submit: %d %s", code, raw)
	}
	if st.ID <= "b-000005" {
		t.Fatalf("post-recovery id %s did not advance past the watermark", st.ID)
	}
}

// TestQueueDepthCountsStealableJobs: the load signal peers steal by counts
// exactly what StealQueued hands out — not jobs this node runs for a peer,
// and not multi-die jobs.
func TestQueueDepthCountsStealableJobs(t *testing.T) {
	release := make(chan struct{})
	svc, _ := newTestServer(t, hookConfig(t, 1, 8, func(ctx context.Context, spec DieSpec) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}))
	defer close(release)

	blocker, err := svc.Submit(JobRequest{Profile: "b11/0"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st, _ := svc.Job(blocker.ID); st.State != StateRunning; st, _ = svc.Job(blocker.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("blocker stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.RunStolen(JobRequest{Profile: "b11/1"}, func(JobStatus) {}); err != nil {
		t.Fatal(err)
	}
	if got := svc.QueueDepth(); got != 0 {
		t.Fatalf("QueueDepth = %d with only a remote-origin job queued, want 0", got)
	}
	if _, err := svc.Submit(JobRequest{Circuit: "b11"}); err != nil {
		t.Fatal(err)
	}
	if got := svc.QueueDepth(); got != 0 {
		t.Fatalf("QueueDepth = %d with a multi-die job queued, want 0", got)
	}
	if stolen := svc.StealQueued(8, "thief"); len(stolen) != 0 {
		t.Fatalf("stole %+v, want nothing", stolen)
	}
	local, err := svc.Submit(JobRequest{Profile: "b11/2"})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.QueueDepth(); got != 1 {
		t.Fatalf("QueueDepth = %d, want 1", got)
	}
	if stolen := svc.StealQueued(8, "thief"); len(stolen) != 1 || stolen[0].ID != local.ID {
		t.Fatalf("stole %+v, want only %s", stolen, local.ID)
	}
}

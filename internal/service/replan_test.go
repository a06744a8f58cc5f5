package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"wcm3d"
)

// tsvName returns the landing-pad name of the i-th inbound TSV on the
// shared b11/Die0 die. Spare insertion only adds sites, so the same names
// resolve on a spared preparation of the same profile and seed.
func tsvName(t *testing.T, i int) string {
	t.Helper()
	n := sharedDie(t).Netlist
	ids := n.InboundTSVs()
	if i >= len(ids) {
		t.Fatalf("die has only %d inbound TSVs", len(ids))
	}
	return n.NameOf(ids[i])
}

func mustDecode(t *testing.T, body string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
}

// TestReplanEndToEnd drives the full incremental path over HTTP: a spared
// job, two sequential single-fault deltas, spare accounting, the job's
// replan counter and the replan metrics section.
func TestReplanEndToEnd(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	code, st, raw := postJob(t, ts,
		`{"profile":"b11/0","seed":1,"method":"ours","spares":{"inbound":2,"outbound":2}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	if fin := waitJob(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("job ended %s: %s", fin.State, fin.Error)
	}

	var rs ReplanStatus
	code, body := postRaw(t, ts, "/v1/jobs/"+st.ID+"/replan",
		fmt.Sprintf(`{"faults":[{"kind":"stuck0","tsv":%q}]}`, tsvName(t, 0)))
	if code != http.StatusOK {
		t.Fatalf("replan 1: %d %s", code, body)
	}
	mustDecode(t, body, &rs)
	if rs.JobID != st.ID || rs.Seq != 1 || len(rs.Repairs) != 1 {
		t.Fatalf("replan 1 status = %+v", rs)
	}
	if rs.Repairs[0].Failed != tsvName(t, 0) || !strings.HasPrefix(rs.Repairs[0].Spare, "spare_in") {
		t.Fatalf("repair = %+v, want inbound spare promotion", rs.Repairs[0])
	}
	if rs.SparesLeft.Inbound != 1 || rs.SparesLeft.Outbound != 2 {
		t.Fatalf("spares left = %+v, want 1 in / 2 out", rs.SparesLeft)
	}
	if rs.ReusedFFs+rs.AdditionalCells == 0 {
		t.Fatalf("implausible replanned totals: %+v", rs)
	}

	code, body = postRaw(t, ts, "/v1/jobs/"+st.ID+"/replan",
		fmt.Sprintf(`{"faults":[{"kind":"open","tsv":%q}]}`, tsvName(t, 1)))
	if code != http.StatusOK {
		t.Fatalf("replan 2: %d %s", code, body)
	}
	mustDecode(t, body, &rs)
	if rs.Seq != 2 || rs.SparesLeft.Inbound != 0 {
		t.Fatalf("replan 2 status = %+v, want seq 2 and inbound spares exhausted", rs)
	}

	var js JobStatus
	if code := getJSON(t, ts, "/v1/jobs/"+st.ID, &js); code != http.StatusOK || js.Replans != 2 {
		t.Fatalf("job status: code %d replans %d, want 2", code, js.Replans)
	}
	if got := svc.metrics.ReplansDone.Load(); got != 2 {
		t.Fatalf("replans_done = %d, want 2", got)
	}

	// Third fault: inbound spares are gone, the delta must change nothing.
	code, body = postRaw(t, ts, "/v1/jobs/"+st.ID+"/replan",
		fmt.Sprintf(`{"faults":[{"kind":"stuck1","tsv":%q}]}`, tsvName(t, 2)))
	if code != http.StatusConflict {
		t.Fatalf("exhausted spares: %d %s, want 409", code, body)
	}
	if code := getJSON(t, ts, "/v1/jobs/"+st.ID, &js); code != http.StatusOK || js.Replans != 2 {
		t.Fatalf("failed replan must not advance history: replans %d", js.Replans)
	}
	if got := svc.metrics.ReplansFailed.Load(); got != 1 {
		t.Fatalf("replans_failed = %d, want 1", got)
	}
}

// TestReplanErrorPaths pins every documented failure status of the replan
// endpoint. One spared done job, one spare-less done job, one fullwrap
// done job and one canceled job serve as targets.
func TestReplanErrorPaths(t *testing.T) {
	block := make(chan struct{})
	var once bool
	_, ts := newTestServer(t, hookConfig(t, 2, 8, func(ctx context.Context, spec DieSpec) error {
		if spec.Seed == 99 && !once {
			once = true
			select {
			case <-block:
			case <-ctx.Done():
			}
		}
		return nil
	}))

	submit := func(body string) string {
		t.Helper()
		code, st, raw := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", body, code, raw)
		}
		return st.ID
	}
	done := submit(`{"profile":"b11/0","seed":1,"method":"ours"}`)
	fullwrap := submit(`{"profile":"b11/0","seed":1,"method":"fullwrap"}`)
	waitJob(t, ts, done)
	waitJob(t, ts, fullwrap)

	// A job stuck in prepare, then canceled: replans against non-done
	// states (running, canceled) are conflicts.
	racing := submit(`{"profile":"b11/1","seed":99,"method":"ours"}`)
	time.Sleep(20 * time.Millisecond)
	valid := fmt.Sprintf(`{"faults":[{"kind":"stuck0","tsv":%q}]}`, tsvName(t, 0))
	if code, body := postRaw(t, ts, "/v1/jobs/"+racing+"/replan", valid); code != http.StatusConflict {
		t.Fatalf("replan on running job: %d %s, want 409", code, body)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+racing, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	close(block)
	waitJob(t, ts, racing)

	var big strings.Builder
	big.WriteString(`{"faults":[`)
	for i := 0; i <= MaxReplanFaults; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		fmt.Fprintf(&big, `{"kind":"stuck0","tsv":"t%d"}`, i)
	}
	big.WriteString(`]}`)

	cases := []struct {
		name, id, body string
		want           int
	}{
		{"unknown job", "j-999999", valid, http.StatusNotFound},
		{"oversized delta", done, big.String(), http.StatusRequestEntityTooLarge},
		{"empty delta", done, `{"faults":[]}`, http.StatusBadRequest},
		{"malformed kind", done, `{"faults":[{"kind":"gamma","tsv":"x"}]}`, http.StatusBadRequest},
		{"unknown field", done, `{"faults":[],"nope":1}`, http.StatusBadRequest},
		{"nonexistent TSV", done, `{"faults":[{"kind":"stuck0","tsv":"no_such_tsv"}]}`, http.StatusBadRequest},
		{"bridge without partner", done, fmt.Sprintf(`{"faults":[{"kind":"bridge","tsv":%q}]}`, tsvName(t, 0)), http.StatusBadRequest},
		{"method without replan", fullwrap, valid, http.StatusBadRequest},
		{"no spare sites", done, valid, http.StatusConflict},
		{"canceled job", racing, valid, http.StatusConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postRaw(t, ts, "/v1/jobs/"+tc.id+"/replan", tc.body)
			if code != tc.want {
				t.Fatalf("%s: got %d %s, want %d", tc.name, code, body, tc.want)
			}
		})
	}
}

// TestReplanEvictedDie pins the 410 contract: once the prepared die leaves
// the LRU, a replan refuses to hide a multi-second re-prepare behind a
// "lightweight" endpoint and tells the client to resubmit.
func TestReplanEvictedDie(t *testing.T) {
	cfg := hookConfig(t, 1, 4, nil)
	cfg.CacheCapacity = 1
	_, ts := newTestServer(t, cfg)

	code, st, raw := postJob(t, ts, `{"profile":"b11/0","seed":1,"method":"ours"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	waitJob(t, ts, st.ID)
	code, st2, raw := postJob(t, ts, `{"profile":"b11/1","seed":1,"method":"ours"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: %d %s", code, raw)
	}
	waitJob(t, ts, st2.ID)

	body := fmt.Sprintf(`{"faults":[{"kind":"stuck0","tsv":%q}]}`, tsvName(t, 0))
	if code, resp := postRaw(t, ts, "/v1/jobs/"+st.ID+"/replan", body); code != http.StatusGone {
		t.Fatalf("replan after eviction: %d %s, want 410", code, resp)
	}
}

// TestReplanRecoveryReplaysHistory exercises the restart story: a job
// restored from the journal carries its delta history, a replan before the
// die is re-prepared is 410, and once an identical submission re-populates
// the cache the old job's planner rebuilds by replaying the journaled
// deltas — so the next delta sees the spares already consumed.
func TestReplanRecoveryReplaysHistory(t *testing.T) {
	const jobBody = `{"profile":"b11/0","seed":1,"method":"ours","spares":{"inbound":2,"outbound":1}}`
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	rec := Recovery{
		Jobs: []RecoveredJob{{
			ID:          "j-000007",
			Req:         JobRequest{Profile: "b11/0", Seed: 1, Method: "ours", Spares: &wcm3d.SpareSpec{Inbound: 2, Outbound: 1}},
			State:       StateDone,
			Result:      &Report{},
			SubmittedAt: time.Now(),
			FinishedAt:  time.Now(),
			Replans: []ReplanRequest{
				{Faults: []wcm3d.TSVFault{{Kind: wcm3d.TSVStuck0, TSV: tsvName(t, 0)}}},
			},
		}},
		MaxSeq: 7,
	}
	if _, restored, err := svc.Recover(rec); err != nil || restored != 1 {
		t.Fatalf("Recover: restored %d err %v", restored, err)
	}
	if got := svc.metrics.ReplansRecovered.Load(); got != 1 {
		t.Fatalf("replans_recovered = %d, want 1", got)
	}
	var js JobStatus
	if code := getJSON(t, ts, "/v1/jobs/j-000007", &js); code != http.StatusOK || js.Replans != 1 {
		t.Fatalf("restored job: code %d replans %d, want 1", code, js.Replans)
	}

	next := fmt.Sprintf(`{"faults":[{"kind":"open","tsv":%q}]}`, tsvName(t, 1))
	if code, body := postRaw(t, ts, "/v1/jobs/j-000007/replan", next); code != http.StatusGone {
		t.Fatalf("replan before re-prepare: %d %s, want 410", code, body)
	}

	// An identical submission re-prepares the die under the same cache key.
	code, st, raw := postJob(t, ts, jobBody)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", code, raw)
	}
	waitJob(t, ts, st.ID)

	code, body := postRaw(t, ts, "/v1/jobs/j-000007/replan", next)
	if code != http.StatusOK {
		t.Fatalf("replan after re-prepare: %d %s", code, body)
	}
	var rs ReplanStatus
	mustDecode(t, body, &rs)
	if rs.Seq != 2 || rs.SparesLeft.Inbound != 0 {
		t.Fatalf("replayed history not reflected: %+v (want seq 2, 0 inbound spares left)", rs)
	}
}

// TestSparedJobGradesFullFaultList checks that a job asking for spare
// sites grades its plan against the die's whole stuck-at fault list: the
// same coverage and pattern count EvaluateStuckAt gives on the spared die,
// not the perfect score of an empty list.
func TestSparedJobGradesFullFaultList(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	code, st, raw := postJob(t, ts,
		`{"profile":"b11/0","atpg":true,"budget":"reduced","spares":{"inbound":1,"outbound":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	fin := waitJob(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job ended %s: %s", fin.State, fin.Error)
	}
	p, err := wcm3d.ProfileByName("b11/0")
	if err != nil {
		t.Fatal(err)
	}
	d, err := wcm3d.PrepareDieWithSpares(p, 1, wcm3d.SpareSpec{Inbound: 1, Outbound: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := wcm3d.Minimize(d, wcm3d.MethodOurs, wcm3d.TightTiming)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wcm3d.EvaluateStuckAt(d, res.Assignment, wcm3d.ReducedBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	got := fin.Result.StuckAt
	if got == nil || got.Patterns == 0 {
		t.Fatalf("stuck-at grade = %+v, want patterns > 0", got)
	}
	if got.Coverage != want.Coverage || got.Patterns != want.Patterns {
		t.Errorf("stuck-at grade = %.4f/%d patterns, want %.4f/%d", got.Coverage, got.Patterns, want.Coverage, want.Patterns)
	}
}

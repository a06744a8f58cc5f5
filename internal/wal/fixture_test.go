package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"wcm3d/internal/service"
)

// fixtureDir holds a segment written by an earlier release of this log. It
// carries every record type that release wrote — submit, start, finish,
// cancel, replan, mark, bsubmit and bfinish — in both the compacted form
// (a mark, then rewritten chains) and the live appended form. Its jobs: a
// done job with replans from both halves (j-000001), a canceled job
// (j-000003), an orphaned inline-netlist job (j-000004), a pending job
// (j-000006), a failed job (j-000008), a done, a pending and a canceled
// batch (b-000002, b-000005, b-000007), and a failed job finished past
// retention (j-000012) whose id survives only in the mark record.
const fixtureDir = "testdata/prevformat"

// canonicalRequest renders a recovered request as JSON with sorted keys.
// A bsubmit record's max_in_flight (b-000002 carries 3) does not recover:
// it never changes how a batch runs.
func canonicalRequest(t *testing.T, req service.JobRequest) string {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// fixtureEntries lists the recovered jobs, one line each, by id.
func fixtureEntries(t *testing.T, rec service.Recovery) []string {
	var out []string
	for _, j := range rec.Jobs {
		rp, err := json.Marshal(j.Replans)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s state=%q err=%q orphaned=%v result=%v req=%s replans=%s",
			j.ID, j.State, j.Err, j.Orphaned, j.Result != nil, canonicalRequest(t, j.Req), rp))
	}
	sort.Strings(out)
	return out
}

// TestReplayPreviousFormatFixture opens a copy of the recorded segment and
// pins what it recovers: ids, states, requests, replan histories and the
// id watermark. The log compacts on Open, so a second Open replays the
// rewritten segment and must recover the same state.
func TestReplayPreviousFormatFixture(t *testing.T) {
	want := []string{
		`b-000002 state="done" err="" orphaned=false result=false req={"circuit":"b11","verify":true} replans=null`,
		`b-000005 state="" err="" orphaned=false result=false req={"method":"agrawal","profiles":["b11/0","b12/1"],"seed":2,"timeout_ms":60000,"timing":"loose"} replans=null`,
		`b-000007 state="canceled" err="context canceled" orphaned=false result=false req={"all":true} replans=null`,
		`j-000001 state="done" err="" orphaned=false result=true req={"atpg":true,"budget":"reduced","method":"ours","profile":"b11/0","seed":3,"spares":{"inbound":2,"outbound":1},"timing":"tight"} replans=[{"faults":[{"kind":"stuck0","tsv":"tsv_a"}]},{"faults":[{"kind":"bridge","tsv":"tsv_b","with":"tsv_c"},{"kind":"open","tsv":"tsv_d"}]}]`,
		`j-000003 state="canceled" err="canceled" orphaned=false result=false req={"profile":"b11/1","seed":1} replans=null`,
		`j-000004 state="" err="" orphaned=true result=false req={"method":"agrawal","netlist":"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n","seed":7,"timing":"loose","verify":true} replans=null`,
		`j-000006 state="" err="" orphaned=false result=false req={"profile":"b11/2","refine":true,"seed":1,"timeout_ms":5000} replans=null`,
		`j-000008 state="failed" err="prepare b11/Die3: boom" orphaned=false result=false req={"profile":"b11/3","seed":1} replans=null`,
	}
	src, err := os.ReadDir(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range src {
		data, err := os.ReadFile(filepath.Join(fixtureDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The fixture's finish times are fixed in the past: a retention
	// horizon of a century keeps every finished entry restorable.
	opts := Options{Retention: 100 * 365 * 24 * time.Hour}
	for pass := 1; pass <= 2; pass++ {
		l, rec := openTest(t, dir, opts)
		if rec.Corrupted != 0 {
			t.Fatalf("pass %d: Corrupted = %d, want 0", pass, rec.Corrupted)
		}
		if rec.MaxSeq != 12 {
			t.Fatalf("pass %d: MaxSeq = %d, want 12 (the mark record's watermark)", pass, rec.MaxSeq)
		}
		got := fixtureEntries(t, rec)
		if len(got) != len(want) {
			t.Fatalf("pass %d: recovered %d entries, want %d:\n%s", pass, len(got), len(want), strings.Join(got, "\n"))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("pass %d: entry %d\n got %s\nwant %s", pass, i, got[i], want[i])
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

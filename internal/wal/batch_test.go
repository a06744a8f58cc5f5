package wal

import (
	"path/filepath"
	"testing"
	"time"

	"wcm3d/internal/service"
)

// appendBatch writes a bsubmit record and, when state is set, a bfinish
// record, the way the log once journaled batch sweeps. The log no longer
// writes them, so the tests forge them through the internal append.
func appendBatch(t *testing.T, l *Log, id string, req batchRequest, state string, at int64) {
	t.Helper()
	if err := l.append(record{T: typeBatchSubmit, ID: id, At: at, BReq: &req}); err != nil {
		t.Fatal(err)
	}
	if state != "" {
		if err := l.append(record{T: typeBatchFinish, ID: id, At: at, State: state}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchRoundTripRecovery: batch records replay as multi-die jobs — a
// finished batch with its terminal state, a pending one for re-execution
// — and batch ids feed the shared sequence watermark.
func TestBatchRoundTripRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	now := time.Now().UnixNano()
	appendBatch(t, l, "b-000003", batchRequest{Circuit: "b11", Seed: 1, MaxInFlight: 4}, service.StateDone, now)
	appendBatch(t, l, "b-000007", batchRequest{All: true, Seed: 2}, "", now)
	// A job in the same log proves the two spellings fold into one family.
	if err := l.Submit("j-000004", reqFor("b11/0")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for pass := 1; pass <= 2; pass++ { // the second pass replays the compacted rewrite
		l, rec := openTest(t, dir, Options{})
		if len(rec.Jobs) != 3 {
			t.Fatalf("pass %d: recovered %d jobs, want 3", pass, len(rec.Jobs))
		}
		if rec.MaxSeq != 7 {
			t.Fatalf("pass %d: MaxSeq = %d, want 7 (batch ids feed the watermark)", pass, rec.MaxSeq)
		}
		fin, ok := findJob(rec, "b-000003")
		if !ok || fin.State != service.StateDone || fin.Req.Circuit != "b11" || fin.Req.Seed != 1 {
			t.Fatalf("pass %d: finished batch = %+v, %v", pass, fin, ok)
		}
		pend, ok := findJob(rec, "b-000007")
		if !ok || pend.State != "" || !pend.Req.All || pend.Req.Seed != 2 {
			t.Fatalf("pass %d: pending batch = %+v, %v", pass, pend, ok)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchCompactionRetention: a batch finished past the retention
// horizon is compacted away on reopen; an unfinished one is kept forever,
// and compaction rewrites it as a plain submit record.
func TestBatchCompactionRetention(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{Retention: time.Hour})
	old := time.Now().Add(-2 * time.Hour).UnixNano()
	appendBatch(t, l, "b-000001", batchRequest{Circuit: "b11"}, service.StateDone, old)
	appendBatch(t, l, "b-000002", batchRequest{Circuit: "b12"}, "", old)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, rec := openTest(t, dir, Options{Retention: time.Hour})
	if _, ok := findJob(rec, "b-000001"); ok {
		t.Fatal("finished batch survived compaction past retention")
	}
	pend, ok := findJob(rec, "b-000002")
	if !ok || pend.State != "" || pend.Req.Circuit != "b12" {
		t.Fatalf("pending batch = %+v, %v (must never be compacted)", pend, ok)
	}
	if rec.MaxSeq != 2 {
		t.Fatalf("MaxSeq = %d, want 2 (watermark survives compaction)", rec.MaxSeq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	if _, err := readSegment(filepath.Join(dir, segName(segs[0])), func(r record) {
		if r.T == typeBatchSubmit || r.T == typeBatchFinish {
			t.Errorf("compaction wrote a %s record", r.T)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"wcm3d/internal/service"
)

// jobState is the folded per-job outcome of a replay.
type jobState struct {
	id       string
	req      *service.JobRequest
	submitAt int64
	startAt  int64
	finishAt int64
	started  bool
	terminal string // "", done, failed, canceled
	errMsg   string
	res      *service.Report
	replans  []service.ReplanRequest
}

// batchRequest is the body of a decode-only bsubmit record: a multi-die
// job in the spelling of the retired batch route, with every field such
// records carry. MaxInFlight never changed how a batch ran, so replay
// drops it.
type batchRequest struct {
	All         bool     `json:"all,omitempty"`
	Circuit     string   `json:"circuit,omitempty"`
	Profiles    []string `json:"profiles,omitempty"`
	Seed        int64    `json:"seed,omitempty"`
	Method      string   `json:"method,omitempty"`
	Timing      string   `json:"timing,omitempty"`
	Verify      bool     `json:"verify,omitempty"`
	MaxInFlight int      `json:"max_in_flight,omitempty"`
	TimeoutMS   int64    `json:"timeout_ms,omitempty"`
}

// fold applies one record to the per-job state map. Replay is idempotent
// and order-tolerant per job: a terminal record wins over everything, a
// duplicate submit (possible after an interrupted compaction left both the
// old and rewritten segments behind) is harmless.
func fold(jobs map[string]*jobState, r record, maxSeq *int) {
	switch r.T {
	case typeBatchSubmit:
		// A batch journaled before batches became multi-die jobs replays
		// as the same multi-die job submitted through POST /v1/jobs.
		r.T = typeSubmit
		if b := r.BReq; b != nil {
			r.Req = &service.JobRequest{
				All: b.All, Circuit: b.Circuit, Profiles: b.Profiles,
				Seed: b.Seed, Method: b.Method, Timing: b.Timing,
				Verify: b.Verify, TimeoutMS: b.TimeoutMS,
			}
		}
	case typeBatchFinish:
		r.T = typeFinish
	case typeMark:
		if r.Seq > *maxSeq {
			*maxSeq = r.Seq
		}
		return
	}
	if r.ID == "" {
		return
	}
	js := jobs[r.ID]
	if js == nil {
		js = &jobState{id: r.ID}
		jobs[r.ID] = js
	}
	switch r.T {
	case typeSubmit:
		if js.req == nil {
			js.req = r.Req
			js.submitAt = r.At
		}
	case typeStart:
		js.started = true
		if js.startAt == 0 {
			js.startAt = r.At
		}
	case typeFinish:
		if js.terminal == "" {
			js.terminal = r.State
			js.errMsg = r.Err
			js.res = r.Res
			js.finishAt = r.At
		}
	case typeCancel:
		if js.terminal == "" {
			js.terminal = service.StateCanceled
			js.errMsg = "canceled"
			js.finishAt = r.At
		}
	case typeReplan:
		// Replans land after the job finished, so they fold regardless of
		// terminal state; record order is history order.
		if r.Delta != nil {
			js.replans = append(js.replans, *r.Delta)
		}
	}
}

// readSegment replays one segment file, feeding each intact record to fn.
// It reports whether the segment ended in a torn or corrupt frame (the
// damaged tail is discarded; everything before it was applied).
func readSegment(path string, fn func(record)) (corrupt bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	hdr := make([]byte, frameHeader)
	var buf []byte
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			if errors.Is(err, io.EOF) {
				return false, nil // clean end
			}
			return true, nil // torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxRecordBytes {
			return true, nil // corrupt length
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(f, buf); err != nil {
			return true, nil // torn payload
		}
		if crc32.Checksum(buf, crcTable) != want {
			return true, nil // bit rot / torn write
		}
		var r record
		if err := unmarshalRecord(buf, &r); err != nil {
			return true, nil // CRC-valid but undecodable: treat as corrupt
		}
		fn(r)
	}
}

// replayLocked folds every segment into per-job state. Corruption inside a
// segment discards that segment's tail only; later segments are still
// replayed (their records fold idempotently).
func (l *Log) replayLocked() (map[string]*jobState, int, int, error) {
	segs, err := segments(l.dir)
	if err != nil {
		return nil, 0, 0, err
	}
	jobs := make(map[string]*jobState)
	maxSeq, corrupted := 0, 0
	for _, n := range segs {
		bad, err := readSegment(filepath.Join(l.dir, segName(n)), func(r record) {
			fold(jobs, r, &maxSeq)
		})
		if err != nil {
			return nil, 0, 0, fmt.Errorf("wal: segment %s: %w", segName(n), err)
		}
		if bad {
			corrupted++
		}
	}
	for id := range jobs {
		if n := jobSeq(id); n > maxSeq {
			maxSeq = n
		}
	}
	return jobs, maxSeq, corrupted, nil
}

// jobSeq mirrors the service's id numbering ("j-%06d" for single-die jobs,
// "b-%06d" for multi-die ones, one sequence) for watermarking.
func jobSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "j-%d", &n); err == nil && n >= 0 {
		return n
	}
	if _, err := fmt.Sscanf(id, "b-%d", &n); err == nil && n >= 0 {
		return n
	}
	return -1
}

// Compact rewrites the log keeping only live jobs — unfinished ones and
// ones finished within the retention horizon — plus a sequence-watermark
// mark record, then deletes the superseded segments. Appends continue in
// the compacted segment. Safe to call while the log is in use.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.compactLocked(time.Now())
	return err
}

// compactLocked is the shared replay+rewrite used by Open (which also
// derives the recovery state from it) and Compact. Crash safety: the
// rewritten segment is written and fsynced under the next segment number
// before any old segment is removed, so a crash at any point leaves either
// the old records, or both old and new — and replay folds duplicates
// idempotently.
func (l *Log) compactLocked(now time.Time) (service.Recovery, error) {
	jobs, maxSeq, corrupted, err := l.replayLocked()
	if err != nil {
		return service.Recovery{}, err
	}
	segs, err := segments(l.dir)
	if err != nil {
		return service.Recovery{}, err
	}

	// Partition into live (kept + recovered) and compactable.
	cutoff := now.Add(-l.opts.Retention).UnixNano()
	ids := make([]string, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var live []*jobState
	for _, id := range ids {
		js := jobs[id]
		if js.req == nil {
			// Start/finish records whose submit was lost to corruption or
			// a bug: nothing to restore or re-run.
			continue
		}
		if js.terminal != "" && js.finishAt > 0 && js.finishAt < cutoff {
			continue // finished past retention: compacted away
		}
		live = append(live, js)
	}

	// Rewrite live records into a fresh segment numbered after every
	// existing one, then drop the old segments.
	next := 1
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	if err := l.writeCompacted(next, live, maxSeq); err != nil {
		return service.Recovery{}, err
	}
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	for _, n := range segs {
		if err := os.Remove(filepath.Join(l.dir, segName(n))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return service.Recovery{}, err
		}
	}
	if err := l.openSegmentLocked(next); err != nil {
		return service.Recovery{}, err
	}

	rec := service.Recovery{MaxSeq: maxSeq, Corrupted: corrupted}
	for _, js := range live {
		rj := service.RecoveredJob{
			ID:          js.id,
			Req:         *js.req,
			Orphaned:    js.started && js.terminal == "",
			State:       js.terminal,
			Err:         js.errMsg,
			Result:      js.res,
			SubmittedAt: nanoTime(js.submitAt),
			StartedAt:   nanoTime(js.startAt),
			FinishedAt:  nanoTime(js.finishAt),
			Replans:     js.replans,
		}
		rec.Jobs = append(rec.Jobs, rj)
	}
	return rec, nil
}

// writeCompacted writes the mark record and each live job's reconstructed
// record chain into segment n, fsyncing before it returns.
func (l *Log) writeCompacted(n int, live []*jobState, maxSeq int) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(n)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	write := func(r record) error {
		payload, err := marshalRecord(r)
		if err != nil {
			return err
		}
		frame := make([]byte, frameHeader+len(payload))
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
		copy(frame[frameHeader:], payload)
		_, err = f.Write(frame)
		return err
	}
	if err := write(record{T: typeMark, Seq: maxSeq}); err != nil {
		return err
	}
	for _, js := range live {
		if err := write(record{T: typeSubmit, ID: js.id, At: js.submitAt, Req: js.req}); err != nil {
			return err
		}
		if js.started {
			if err := write(record{T: typeStart, ID: js.id, At: js.startAt}); err != nil {
				return err
			}
		}
		if js.terminal != "" {
			if err := write(record{T: typeFinish, ID: js.id, At: js.finishAt,
				State: js.terminal, Err: js.errMsg, Res: js.res}); err != nil {
				return err
			}
		}
		for i := range js.replans {
			if err := write(record{T: typeReplan, ID: js.id, Delta: &js.replans[i]}); err != nil {
				return err
			}
		}
	}
	if l.opts.NoSync {
		return nil
	}
	return f.Sync()
}

func nanoTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Package wal is wcmd's segmented write-ahead job log: every job
// lifecycle transition (submit, start, finish, cancel, and the replans of
// a finished job) is appended as a CRC-framed, fsynced record, so a kill
// -9 loses nothing that was ever acknowledged. Single- and multi-die jobs
// share the one record family. Open replays the log into a recovery
// state — pending and orphaned jobs to re-queue, recently finished ones
// to restore — and compacts away jobs finished past the retention
// horizon. Segments rotate
// at a size threshold so compaction rewrites bounded amounts of data.
//
// On-disk format: each segment file (wal-NNNNNN.log) is a sequence of
// frames [len uint32 LE][crc32c uint32 LE][payload], payload being one
// JSON record. A torn or corrupt frame ends the readable part of its
// segment — the damaged tail is discarded on replay, every record before
// it stands, and later segments are still read (torn writes only ever
// damage the tail of the segment being appended when the process died).
package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"wcm3d/internal/service"
)

// Record types.
const (
	typeSubmit = "submit"
	typeStart  = "start"
	typeFinish = "finish"
	typeCancel = "cancel"
	// bsubmit/bfinish are decode-only: segments written before batches
	// became multi-die jobs carry them, and replay folds them into the
	// submit and finish of that job.
	typeBatchSubmit = "bsubmit"
	typeBatchFinish = "bfinish"
	// typeReplan records one applied TSV-repair delta on a finished job
	// (POST /v1/jobs/{id}/replan); replay rebuilds the job's repair
	// history in record order.
	typeReplan = "replan"
	// typeMark carries the job-id sequence watermark across compactions,
	// so a log whose every job was compacted away still prevents id reuse.
	typeMark = "mark"
)

// record is the JSON payload of one frame.
type record struct {
	T     string                 `json:"t"`
	ID    string                 `json:"id,omitempty"`
	At    int64                  `json:"at,omitempty"` // unix nanoseconds
	Req   *service.JobRequest    `json:"req,omitempty"`
	BReq  *batchRequest          `json:"breq,omitempty"` // bsubmit records only
	State string                 `json:"state,omitempty"`
	Err   string                 `json:"err,omitempty"`
	Res   *service.Report        `json:"res,omitempty"`
	Delta *service.ReplanRequest `json:"delta,omitempty"`
	Seq   int                    `json:"seq,omitempty"`
}

// Options tunes a Log. The zero value gets defaults from Open.
type Options struct {
	// SegmentBytes is the rotation threshold: an append that would push
	// the active segment past it seals the segment and starts the next
	// (default 4 MiB).
	SegmentBytes int64
	// Retention is the compaction horizon: jobs finished longer ago than
	// this are dropped when the log compacts (default 1h). It should
	// match (or exceed) the service's job-retention TTL so every
	// queryable job stays restorable.
	Retention time.Duration
	// NoSync skips the per-record fsync. Only for tests — it voids the
	// durability contract.
	NoSync bool
}

// Log is an append-only segmented job journal. It implements
// service.Journal. Safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	dir  string
	opts Options
	f    *os.File
	seg  int   // active segment number
	size int64 // bytes written to the active segment
}

const (
	frameHeader = 8
	// maxRecordBytes bounds a single frame so a corrupt length field
	// cannot trigger an absurd allocation during replay.
	maxRecordBytes = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func marshalRecord(r record) ([]byte, error)    { return json.Marshal(r) }
func unmarshalRecord(b []byte, r *record) error { return json.Unmarshal(b, r) }

func segName(n int) string { return fmt.Sprintf("wal-%06d.log", n) }

// segments lists the log's segment numbers in ascending order.
func segments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "wal-%06d.log", &n); err == nil {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// Open replays and compacts the log at dir (creating it if needed) and
// returns the log ready for appends plus the recovery state: pending and
// orphaned jobs for the service to re-queue, recently finished jobs to
// restore, and the id watermark.
func Open(dir string, opts Options) (*Log, service.Recovery, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.Retention <= 0 {
		opts.Retention = time.Hour
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, service.Recovery{}, err
	}
	l := &Log{dir: dir, opts: opts}
	rec, err := l.compactLocked(time.Now())
	if err != nil {
		return nil, service.Recovery{}, err
	}
	return l, rec, nil
}

// Append writes one framed record to the active segment, rotating first if
// the record would push it past the segment threshold, and fsyncs unless
// NoSync is set.
func (l *Log) append(r record) error {
	payload, err := marshalRecord(r)
	if err != nil {
		return err
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeader:], payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		if err := l.openSegmentLocked(l.seg + 1); err != nil {
			return err
		}
	}
	if l.size > 0 && l.size+int64(len(frame)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		return err
	}
	l.size += int64(len(frame))
	if !l.opts.NoSync {
		return l.f.Sync()
	}
	return nil
}

// openSegmentLocked opens segment n for appending and makes it active.
func (l *Log) openSegmentLocked(n int) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(n)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.f, l.seg, l.size = f, n, st.Size()
	return nil
}

// rotateLocked seals the active segment and opens the next one.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if !l.opts.NoSync {
			if err := l.f.Sync(); err != nil {
				return err
			}
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	return l.openSegmentLocked(l.seg + 1)
}

// Close seals the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Submit implements service.Journal.
func (l *Log) Submit(id string, req service.JobRequest) error {
	r := req
	return l.append(record{T: typeSubmit, ID: id, At: time.Now().UnixNano(), Req: &r})
}

// Start implements service.Journal.
func (l *Log) Start(id string) error {
	return l.append(record{T: typeStart, ID: id, At: time.Now().UnixNano()})
}

// Finish implements service.Journal.
func (l *Log) Finish(id string, state, errMsg string, result *service.Report) error {
	return l.append(record{T: typeFinish, ID: id, At: time.Now().UnixNano(), State: state, Err: errMsg, Res: result})
}

// Cancel implements service.Journal.
func (l *Log) Cancel(id string) error {
	return l.append(record{T: typeCancel, ID: id, At: time.Now().UnixNano()})
}

// Replan implements service.Journal.
func (l *Log) Replan(id string, delta service.ReplanRequest) error {
	d := delta
	return l.append(record{T: typeReplan, ID: id, At: time.Now().UnixNano(), Delta: &d})
}

var _ service.Journal = (*Log)(nil)

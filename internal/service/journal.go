package service

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ErrJournal wraps write-ahead-log failures on the submission path. A
// submission that cannot be made durable is refused outright — the HTTP
// layer maps it to 500 — because accepting it would silently downgrade the
// daemon's crash-recovery contract.
var ErrJournal = errors.New("service: journal write failed")

// Journal records job lifecycle transitions durably so they survive a
// crash. internal/wal provides the production implementation (a segmented,
// CRC-framed, fsync-per-record log); a nil Journal — the single-node
// default — disables durability and leaves the service byte-identical to
// its pre-WAL behavior.
//
// Implementations must be safe for concurrent use and should stamp their
// own record times. Submit must not return until the record is durable;
// Start/Finish/Cancel failures are surfaced to the caller but treated as
// non-fatal by the service (counted in wal_errors and logged).
type Journal interface {
	// Submit records an accepted job and its full request.
	Submit(id string, req JobRequest) error
	// Start records that a worker (local or a stealing peer) picked the
	// job up. A job with a start but no finish replays as orphaned.
	Start(id string) error
	// Finish records a terminal transition with its result (nil unless the
	// job succeeded).
	Finish(id string, state, errMsg string, result *Report) error
	// Cancel records a queued job canceled before it ever ran.
	Cancel(id string) error
	// Replan records one delta applied by POST /v1/jobs/{id}/replan, so a
	// restart rebuilds the job's repair history (RecoveredJob.Replans);
	// the planner itself is rebuilt lazily by re-applying it on the next
	// replan. Only executed deltas are journaled — a rejected one changes
	// nothing.
	Replan(id string, delta ReplanRequest) error
}

// RecoveredJob is one job reconstructed from the write-ahead log at boot.
type RecoveredJob struct {
	ID  string
	Req JobRequest
	// Orphaned marks a job that was running (or stolen) when the process
	// died; it is re-queued for re-execution just like a pending one, the
	// flag only feeds the recovery log line.
	Orphaned bool
	// State is the terminal state for a job that finished before the
	// crash ("" for pending/orphaned jobs, which are re-queued). Finished
	// jobs are restored to the job table so clients polling their ids
	// still see the terminal outcome after a restart.
	State       string
	Err         string
	Result      *Report
	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
	// Replans is the job's applied TSV-repair delta history, in order.
	Replans []ReplanRequest
}

// Recovery is what a Journal replays at boot: every job not yet compacted
// away, plus the id watermark that keeps new ids from colliding with ones
// the log has already handed out (including compacted ones).
type Recovery struct {
	Jobs []RecoveredJob
	// MaxSeq is the highest numeric job-id suffix the log has ever seen.
	MaxSeq int
	// Corrupted counts log segments that ended in a torn or corrupt
	// record during replay (the damaged tail is discarded, earlier
	// records stand).
	Corrupted int
}

// jobSeq extracts the numeric suffix of a "j-%06d" or "b-%06d" job id (-1
// if the id does not carry one).
func jobSeq(id string) int {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return -1
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// idLess orders job ids by their shared sequence number, so single-die
// ("j-") and multi-die ("b-") jobs interleave in submission order. The
// empty id sorts before every job.
func idLess(a, b string) bool {
	if na, nb := jobSeq(a), jobSeq(b); na != nb {
		return na < nb
	}
	return a < b
}

// Recover replays a journal's recovery state into the service: finished
// jobs are restored to the job table with their terminal outcome, pending
// and orphaned jobs are re-queued for execution under their original ids,
// and the id sequence is advanced past everything the log has seen. It
// returns how many jobs were re-queued and how many terminal jobs were
// restored. Call it once, after New and before serving traffic.
func (s *Service) Recover(rec Recovery) (requeued, restored int, err error) {
	resolved := make([]*job, len(rec.Jobs))
	for i, r := range rec.Jobs {
		j, rerr := s.resolve(r.Req)
		if rerr != nil {
			s.logf("wcmd: recovery: job %s request no longer valid, dropping: %v", r.ID, rerr)
			continue
		}
		resolved[i] = j
	}
	var feed []*job
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, 0, ErrShuttingDown
	}
	if rec.MaxSeq > s.seq {
		s.seq = rec.MaxSeq
	}
	for i, r := range rec.Jobs {
		if _, dup := s.jobs[r.ID]; dup || r.ID == "" {
			continue
		}
		if n := jobSeq(r.ID); n > s.seq {
			s.seq = n
		}
		j := resolved[i]
		if j == nil {
			continue
		}
		j.id = r.ID
		j.submitted = r.SubmittedAt
		if j.submitted.IsZero() {
			j.submitted = time.Now()
		}
		if len(r.Replans) > 0 {
			// The repair history survives the restart; the planner itself
			// is rebuilt lazily by replaying it on the next replan.
			j.replans = append([]ReplanRequest(nil), r.Replans...)
			s.metrics.ReplansRecovered.Add(int64(len(r.Replans)))
		}
		if r.State != "" { // finished before the crash: restore, don't run
			j.state = r.State
			if r.Err != "" {
				j.err = errors.New(r.Err)
			}
			j.result = r.Result
			if r.State == StateDone {
				// Per-die results are not journaled, but a done job
				// completed every die: pollers read N of N, not 0 of N.
				// The plan numbers went with the crash; resubmitting
				// recomputes them.
				for i := range j.dies {
					j.dies[i].State = BatchDieDone
				}
			}
			if !r.StartedAt.IsZero() {
				t := r.StartedAt
				j.started = &t
			}
			ft := r.FinishedAt
			if ft.IsZero() {
				ft = time.Now()
			}
			j.finished = &ft
			s.jobs[j.id] = j
			restored++
			s.metrics.JobsRecovered.Add(1)
			continue
		}
		j.state = StateQueued
		s.jobs[j.id] = j
		feed = append(feed, j)
		requeued++
		s.metrics.JobsRecovered.Add(1)
		s.metrics.JobsQueued.Add(1)
		if r.Orphaned {
			s.logf("wcmd: recovery: job %s was running at crash time, re-queued for re-execution", r.ID)
		}
	}
	s.mu.Unlock()
	if len(feed) > 0 {
		sort.Slice(feed, func(a, b int) bool { return idLess(feed[a].id, feed[b].id) })
		go s.feedRecovered(feed)
	}
	return requeued, restored, nil
}

// feedRecovered pushes recovered jobs into the bounded pool queue. The
// queue may be smaller than the backlog, so full-queue rejections are
// retried as workers drain it; the loop ends when every job is enqueued or
// the service shuts down (whatever is left stays journaled for the next
// boot).
func (s *Service) feedRecovered(feed []*job) {
	for _, j := range feed {
		j := j
		for {
			s.mu.Lock()
			state := j.state
			s.mu.Unlock()
			if state != StateQueued { // canceled while waiting for a slot
				break
			}
			err := s.pool.trySubmit(func(ctx context.Context) { s.runJob(ctx, j) })
			if err == nil {
				break
			}
			if errors.Is(err, ErrShuttingDown) {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// journalFinish writes a job's terminal record after the state transition
// committed. Callers must NOT hold s.mu (the journal fsyncs). Abandoned
// jobs (drain cut short) are deliberately not journaled so they replay as
// pending on the next boot.
func (s *Service) journalFinish(j *job) {
	if s.cfg.Journal == nil || j.remoteOrigin {
		return
	}
	s.mu.Lock()
	state, abandoned, started := j.state, j.abandoned, j.started != nil
	var errMsg string
	if j.err != nil {
		errMsg = j.err.Error()
	}
	rep := j.result
	s.mu.Unlock()
	if abandoned {
		return
	}
	switch {
	case state == StateCanceled && !started:
		s.journalWrite("finish "+j.id, func(jl Journal) error { return jl.Cancel(j.id) })
	case state == StateDone || state == StateFailed || state == StateCanceled:
		s.journalWrite("finish "+j.id, func(jl Journal) error { return jl.Finish(j.id, state, errMsg, rep) })
	}
}

// journalReplan records one applied replan delta; non-fatal on failure
// (like Start/Finish — the replan already executed, a lost record only
// costs replay fidelity after the next restart).
func (s *Service) journalReplan(id string, delta ReplanRequest) {
	s.journalWrite("replan "+id, func(jl Journal) error { return jl.Replan(id, delta) })
}

// journalStart records that a job began executing; non-fatal on failure.
func (s *Service) journalStart(id string) {
	s.journalWrite("start "+id, func(jl Journal) error { return jl.Start(id) })
}

// journalWrite makes one write whose failure must not fail the caller:
// without a journal it does nothing, and an error counts in WALErrors and
// is logged as "wcmd: journal <what>: <error>".
func (s *Service) journalWrite(what string, write func(Journal) error) {
	if s.cfg.Journal == nil {
		return
	}
	if err := write(s.cfg.Journal); err != nil {
		s.metrics.WALErrors.Add(1)
		s.logf("wcmd: journal %s: %v", what, err)
	}
}

// logf routes service log lines through Config.Logf (discarded when nil so
// library users and tests stay silent by default).
func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

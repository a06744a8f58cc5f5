package service

import (
	"errors"
	"fmt"
	"time"

	"wcm3d"
)

// MaxReplanFaults bounds one delta's fault count. Real repair flows fix a
// handful of TSVs at a time; a larger delta is almost certainly a client
// bug, and bouncing it with 413 keeps the per-job replan lock short.
const MaxReplanFaults = 16

// Replan-path failures the HTTP layer maps onto statuses.
var (
	// ErrNoSuchJob marks an unknown (or already pruned) job id.
	ErrNoSuchJob = errors.New("service: no such job")
	// ErrReplanJobNotDone marks a replan against a job that has not
	// finished successfully — queued, running, failed or canceled (a
	// cancel racing the replan lands here too).
	ErrReplanJobNotDone = errors.New("service: replan needs a successfully finished job")
	// ErrReplanUnsupported marks a job with no incremental replan path:
	// its method has none (li, fullwrap), or it is a multi-die job.
	ErrReplanUnsupported = errors.New("service: job has no incremental replan")
	// ErrDieEvicted marks a job whose prepared die has left the LRU cache;
	// the client resubmits the job to re-prepare it.
	ErrDieEvicted = errors.New("service: prepared die evicted from cache, resubmit the job")
	// ErrDeltaTooLarge marks a delta over MaxReplanFaults.
	ErrDeltaTooLarge = fmt.Errorf("service: delta exceeds %d faults", MaxReplanFaults)
)

// ReplanRequest is the body of POST /v1/jobs/{id}/replan: one atomic
// batch of TSV faults. Either every fault in it is repaired onto a spare
// site and the plan is regenerated, or nothing changes.
type ReplanRequest struct {
	Faults []wcm3d.TSVFault `json:"faults"`
}

// ReplanStatus is the replan response: the executed repairs and the
// incrementally regenerated wrapper totals. The plan is certified
// equivalent to a from-scratch Minimize on the patched die (see
// internal/tsvrepair and the replan-equivalence CI job).
type ReplanStatus struct {
	JobID string `json:"job_id"`
	// Seq is the 1-based count of deltas applied to this job so far.
	Seq     int               `json:"seq"`
	Repairs []wcm3d.TSVRepair `json:"repairs"`
	// ReusedFFs / AdditionalCells are the patched die's replanned totals.
	ReusedFFs       int `json:"reused_ffs"`
	AdditionalCells int `json:"additional_cells"`
	// SparesLeft reports the unpromoted spare sites remaining per side.
	SparesLeft wcm3d.SpareSpec `json:"spares_left"`
	ElapsedMS  float64         `json:"elapsed_ms"`
}

// Replan applies one TSV-fault delta to a finished job's die and replans
// the wrapper assignment incrementally through the job's session caches.
// The first replan on a job builds its planner from the cached prepared
// die (ErrDieEvicted when the LRU has dropped it) and replays any
// journal-recovered delta history; later replans reuse it. Replans on one
// job are serialized; different jobs replan concurrently.
func (s *Service) Replan(id string, req ReplanRequest) (ReplanStatus, error) {
	if len(req.Faults) > MaxReplanFaults {
		return ReplanStatus{}, ErrDeltaTooLarge
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	var state string
	if ok {
		state = j.state
	}
	s.mu.Unlock()
	if !ok {
		return ReplanStatus{}, ErrNoSuchJob
	}
	if state != StateDone {
		return ReplanStatus{}, fmt.Errorf("%w (state %s)", ErrReplanJobNotDone, state)
	}
	if j.req.selectsDies() {
		return ReplanStatus{}, fmt.Errorf("%w (multi-die job)", ErrReplanUnsupported)
	}

	j.replanMu.Lock()
	defer j.replanMu.Unlock()
	start := time.Now()
	st, err := s.replanLocked(j, req)
	s.metrics.ObserveOutcome(StageReplan, time.Since(start), err)
	if err != nil {
		s.metrics.ReplansFailed.Add(1)
		return ReplanStatus{}, err
	}
	st.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
	s.metrics.ReplansDone.Add(1)
	return st, nil
}

// replanLocked runs one delta under the job's replan lock.
func (s *Service) replanLocked(j *job, req ReplanRequest) (ReplanStatus, error) {
	p, err := s.plannerFor(j)
	if err != nil {
		return ReplanStatus{}, err
	}
	res, reps, err := wcm3d.Replan(p, wcm3d.TSVDelta{Faults: req.Faults})
	if err != nil {
		if reps != nil {
			// The patch landed but the replan itself failed: the planner no
			// longer matches the recorded history, so drop it — the next
			// replan rebuilds it from the journaled deltas.
			j.planner = nil
		}
		return ReplanStatus{}, err
	}

	s.mu.Lock()
	j.replans = append(j.replans, req)
	seq := len(j.replans)
	s.mu.Unlock()
	s.journalReplan(j.id, req)

	in, out := p.SparesLeft()
	return ReplanStatus{
		JobID:           j.id,
		Seq:             seq,
		Repairs:         reps,
		ReusedFFs:       res.ReusedFFs,
		AdditionalCells: res.AdditionalCells,
		SparesLeft:      wcm3d.SpareSpec{Inbound: in, Outbound: out},
	}, nil
}

// plannerFor returns the job's planner, building it on first use: the
// prepared die is peeked from the LRU cache (never re-prepared — a replan
// is a lightweight operation and must not hide a multi-second prepare),
// the baseline is planned with the method's options (a method without
// any, li or fullwrap, has no planner: ErrReplanUnsupported), and the
// job's recorded delta history is replayed so the planner resumes exactly
// where the last process left off. Callers hold j.replanMu.
func (s *Service) plannerFor(j *job) (*wcm3d.ReplanPlanner, error) {
	if j.planner != nil {
		return j.planner, nil
	}
	die, ok := s.dies.peek(DieKey{Name: j.specs[0].Name, Seed: j.specs[0].Seed})
	if !ok {
		return nil, ErrDieEvicted
	}
	opts, ok := wcm3d.MethodOptions(die, j.method, j.mode)
	if !ok {
		return nil, fmt.Errorf("%w (method %q)", ErrReplanUnsupported, j.req.Method)
	}
	p, err := wcm3d.NewReplanPlanner(die, opts)
	if err != nil {
		return nil, fmt.Errorf("building replanner: %w", err)
	}
	s.mu.Lock()
	history := append([]ReplanRequest(nil), j.replans...)
	s.mu.Unlock()
	for i, d := range history {
		// Preparation is deterministic per (spec, seed), so journaled
		// deltas replay verbatim; a failure means the log and the die
		// generation disagree and is surfaced rather than papered over.
		if _, err := p.Apply(wcm3d.TSVDelta{Faults: d.Faults}); err != nil {
			return nil, fmt.Errorf("replaying journaled delta %d/%d: %w", i+1, len(history), err)
		}
	}
	j.planner = p
	return p, nil
}

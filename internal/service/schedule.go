package service

import (
	"context"
	"fmt"
	"time"

	"wcm3d"
)

// ScheduleRequest is the body of POST /v1/schedules: a pre-bond stack to
// wrap and schedule onto a shared TAM.
type ScheduleRequest struct {
	// Circuit names a Table II benchmark family ("b12"); its four dies
	// form the stack. Profiles lists explicit dies ("b12/1", ...) instead.
	// Exactly one must be set.
	Circuit  string   `json:"circuit,omitempty"`
	Profiles []string `json:"profiles,omitempty"`
	// Width is the total TAM wire budget (required, >= 1).
	Width int `json:"width"`
	// Seed drives generation, placement and ATPG (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Method is ours | agrawal | li | fullwrap (default ours).
	Method string `json:"method,omitempty"`
	// Timing is tight | loose (default tight).
	Timing string `json:"timing,omitempty"`
	// Budget is the ATPG effort: full | reduced (default full).
	Budget string `json:"budget,omitempty"`
	// TimeoutMS bounds the whole scheduling run once a worker picks it
	// up, in milliseconds. It is clamped to the server's MaxTimeout cap;
	// 0 means the cap applies directly.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ScheduleDieReport is one die's contribution to a schedule: its
// description, its ATPG pattern count, and its Pareto wrapper designs.
type ScheduleDieReport struct {
	Die      DieInfo               `json:"die"`
	Patterns int                   `json:"patterns"`
	Designs  []wcm3d.WrapperDesign `json:"designs"`
}

// ScheduleReport is the machine-readable outcome of a stack scheduling
// run — the schema shared by POST /v1/schedules and cmd/schedule -json.
type ScheduleReport struct {
	Stack       string              `json:"stack"`
	Method      string              `json:"method"`
	Timing      string              `json:"timing"`
	Seed        int64               `json:"seed"`
	Dies        []ScheduleDieReport `json:"dies"`
	Schedule    *wcm3d.TestSchedule `json:"schedule"`
	Utilization float64             `json:"utilization"`
}

// ScheduleStack runs wrapper/TAM co-optimization for a stack request: each
// die is prepared through the shared die cache (so repeat schedules and
// minimize jobs amortize the expensive preparation), wrapped with the
// requested method, graded with stuck-at ATPG for its pattern count, and
// packed into the TAM plane. The whole run is timed under the "schedule"
// latency histogram.
//
// The request resolves like a multi-die job and runs as a task on the job
// pool, so a full queue rejects it with ErrQueueFull, its timeout_ms
// starts when a worker picks it up, and a shutdown drain deadline ends it
// with ErrShuttingDown. ScheduleStack waits for the run; if ctx ends first
// it returns ctx's error, and a run still queued is skipped.
func (s *Service) ScheduleStack(ctx context.Context, req ScheduleRequest) (*ScheduleReport, error) {
	j, err := s.resolve(JobRequest{
		Circuit: req.Circuit, Profiles: req.Profiles, Seed: req.Seed, Method: req.Method,
		Timing: req.Timing, Budget: req.Budget, TimeoutMS: req.TimeoutMS,
	})
	if err != nil {
		return nil, err
	}
	if req.Width < 1 {
		return nil, fmt.Errorf("width must be >= 1, got %d", req.Width)
	}
	type outcome struct {
		rep *ScheduleReport
		err error
	}
	done := make(chan outcome, 1)
	err = s.admit(func(poolCtx context.Context) {
		if ctx.Err() != nil {
			return // the caller left while the run was queued
		}
		runCtx, cancel := context.WithTimeout(poolCtx, s.effectiveTimeout(req.TimeoutMS))
		defer cancel()
		defer context.AfterFunc(ctx, cancel)()
		start := time.Now()
		rep, err := s.buildSchedule(runCtx, j, req.Width)
		s.metrics.ObserveOutcome(StageSchedule, time.Since(start), err)
		if err != nil && poolCtx.Err() != nil {
			err = fmt.Errorf("%w: %v", ErrShuttingDown, err)
		}
		done <- outcome{rep, err}
	})
	if err != nil {
		return nil, err
	}
	select {
	case o := <-done:
		return o.rep, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// buildSchedule prepares the stack's dies through the die cache, one at a
// time as StackDies reaches them, and packs them at width wires.
func (s *Service) buildSchedule(ctx context.Context, j *job, width int) (*ScheduleReport, error) {
	stack, err := StackDies(ctx, len(j.specs), func(i int) (string, *wcm3d.Die, error) {
		spec := j.specs[i]
		die, err := s.dies.get(ctx, DieKey{Name: spec.Name, Seed: spec.Seed}, s.preparer(spec))
		if err != nil {
			return "", nil, fmt.Errorf("prepare %s: %w", spec.Name, err)
		}
		return spec.Name, die, nil
	}, j.method, j.mode, j.budget)
	if err != nil {
		return nil, err
	}
	stackName := j.req.Circuit
	if stackName == "" {
		stackName = "custom"
	}
	return EncodeSchedule(stackName, j.method, j.mode, j.req.Seed, stack, width)
}

// EncodeSchedule packs the stacked dies into the width-wire TAM plane
// (wcm3d.ScheduleDesigns) and builds the shared report from the schedule
// and the designs it packed — the common tail of POST /v1/schedules and
// cmd/schedule, so daemon and CLI output stay in lockstep.
func EncodeSchedule(stackName string, method wcm3d.Method, mode wcm3d.TimingMode, seed int64, stack []wcm3d.StackDie, width int) (*ScheduleReport, error) {
	sched, packed, err := wcm3d.ScheduleDesigns(stack, width)
	if err != nil {
		return nil, err
	}
	rep := &ScheduleReport{
		Stack:       stackName,
		Method:      method.String(),
		Timing:      mode.String(),
		Seed:        seed,
		Schedule:    sched,
		Utilization: sched.Utilization(),
	}
	for i, sd := range stack {
		rep.Dies = append(rep.Dies, ScheduleDieReport{
			Die:      DescribeDie(packed[i].Name, seed, sd.Die),
			Patterns: sd.Patterns,
			Designs:  packed[i].Designs,
		})
	}
	return rep, nil
}

package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"wcm3d"
)

// Config tunes a Service. The zero value gets sensible defaults from New.
type Config struct {
	// Workers is the worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs; a full
	// queue rejects submissions with ErrQueueFull (default: 64).
	QueueDepth int
	// CacheCapacity bounds the prepared-die LRU cache (default: 16).
	CacheCapacity int
	// RetentionTTL bounds how long a finished job stays queryable before
	// the retention sweep drops it (default: 1h).
	RetentionTTL time.Duration
	// MaxFinished bounds the number of finished jobs, single- and
	// multi-die alike, retained in the job table; the oldest finished
	// entries beyond it are dropped (default: 1024). Queued and running
	// jobs are never pruned.
	MaxFinished int
	// GCInterval is the period of the retention sweep ticker (default:
	// 1m). Sweeps also run opportunistically on every submission.
	GCInterval time.Duration
	// MaxTimeout is the server-side cap on per-job and per-schedule
	// deadlines; a request's timeout_ms is clamped to it, and a request
	// without one gets it outright (default: 10m).
	MaxTimeout time.Duration
	// Prepare builds a die from a spec. Nil uses DefaultPrepare; tests
	// substitute counting, blocking or failing fault-injection hooks here.
	Prepare func(ctx context.Context, spec DieSpec) (*wcm3d.Die, error)
	// Journal, when non-nil, makes the job table durable: every accepted
	// job is recorded before it is queued, and a crash replays pending
	// and orphaned jobs on the next boot (see internal/wal and Recover).
	// Nil — the default — keeps the single-node in-memory behavior.
	Journal Journal
	// Logf receives operational log lines (recovery notes, journal write
	// failures, steal traffic). Nil discards them.
	Logf func(format string, args ...any)
}

// DieSpec identifies the die a job wants prepared.
type DieSpec struct {
	// Profile is the Table II profile to generate (when Source is empty).
	Profile wcm3d.Profile
	// Source is an inline .bench netlist (alternative to Profile).
	Source string
	// Name is the display/cache name ("b12/Die1" or "bench:<hash>"),
	// suffixed with the spare configuration when one is requested so
	// spared and spare-less preparations never share a cache entry.
	Name string
	// Seed drives generation, placement and ATPG.
	Seed int64
	// Spares asks the preparation to materialize spare TSV sites (the
	// prerequisite for POST /v1/jobs/{id}/replan).
	Spares wcm3d.SpareSpec
}

// DefaultPrepare is the production die builder: PrepareDieWithSpares for
// profiles, ParseNetlist + AddSpareTSVs + PrepareParsed for inline sources
// (a zero spare spec adds no sites). The heavy pipeline is not cancellable
// mid-flight, so ctx is only checked before starting.
func DefaultPrepare(ctx context.Context, spec DieSpec) (*wcm3d.Die, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.Source != "" {
		n, err := wcm3d.ParseNetlist(spec.Name, strings.NewReader(spec.Source))
		if err != nil {
			return nil, err
		}
		if err := wcm3d.AddSpareTSVs(n, spec.Spares); err != nil {
			return nil, err
		}
		return wcm3d.PrepareParsed(n, spec.Seed)
	}
	return wcm3d.PrepareDieWithSpares(spec.Profile, spec.Seed, spec.Spares)
}

// JobRequest is the body of POST /v1/jobs. A job is a list of dies run in
// order: one for Profile or Netlist, several for the die selectors All,
// Circuit and Profiles. POST /v1/schedules resolves its stack as one too.
type JobRequest struct {
	// Profile names a Table II die ("b12/1"); Netlist carries an inline
	// .bench source instead. Exactly one of these two and the die
	// selectors below must be set.
	Profile string `json:"profile,omitempty"`
	Netlist string `json:"netlist,omitempty"`
	// Seed drives generation, placement and ATPG (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Method is ours | agrawal | li | fullwrap (default ours).
	Method string `json:"method,omitempty"`
	// Timing is tight | loose (default tight).
	Timing string `json:"timing,omitempty"`
	// ATPG asks for a stuck-at evaluation of the plan.
	ATPG bool `json:"atpg,omitempty"`
	// Budget is the ATPG effort: full | reduced (default full).
	Budget string `json:"budget,omitempty"`
	// Verify asks for an independent re-verification of the plan (see
	// internal/verify); the report lands in Result.Verify. Also settable
	// as the verify=true query parameter on POST /v1/jobs.
	Verify bool `json:"verify,omitempty"`
	// Refine asks the anytime solver portfolio (see internal/refine) to
	// improve the greedy plan before signoff; its deadline is fed by the
	// job's clamped timeout_ms, the report lands in Result.Refine, and
	// the job's seed drives the annealer's RNG. Also settable as the
	// refine=true query parameter on POST /v1/jobs. Only meaningful for
	// methods with a threshold contract (ours, agrawal); single-die jobs
	// only.
	Refine bool `json:"refine,omitempty"`
	// TimeoutMS bounds the job's execution once it starts running, in
	// milliseconds. It is clamped to the server's MaxTimeout cap; 0 means
	// the cap applies directly. A job over its deadline is canceled.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Spares asks the prepared die to carry spare TSV sites per side,
	// making the finished job replannable after TSV defects
	// (POST /v1/jobs/{id}/replan). Nil prepares no spares; single-die
	// jobs only.
	Spares *wcm3d.SpareSpec `json:"spares,omitempty"`
	// All selects every Table II die, Circuit one benchmark family's four
	// dies ("b12"), Profiles an explicit list ("b12/1"), at most maxJobDies
	// in all. Such a job reports per-die progress in JobStatus.Dies.
	All      bool     `json:"all,omitempty"`
	Circuit  string   `json:"circuit,omitempty"`
	Profiles []string `json:"profiles,omitempty"`
}

// selectsDies reports whether the request names its dies through a die
// selector rather than Profile or Netlist: the job is then a multi-die
// job with a "b-" id.
func (r JobRequest) selectsDies() bool {
	return r.All || r.Circuit != "" || len(r.Profiles) > 0
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobStatus is the JSON view of a job, returned by POST /v1/jobs and
// GET /v1/jobs/{id}.
type JobStatus struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	Request     JobRequest `json:"request"`
	Error       string     `json:"error,omitempty"`
	Result      *Report    `json:"result,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Replans counts the TSV-fault deltas applied to this job's plan via
	// POST /v1/jobs/{id}/replan (journal-recovered deltas included).
	Replans int `json:"replans,omitempty"`
	// Dies is the per-die progress of a multi-die job, in run order; its
	// Result stays empty.
	Dies []BatchDie `json:"dies,omitempty"`
}

// maxJobDies caps how many dies one job may select; the full Table II
// sweep is 24, so the cap leaves room for multi-seed sweeps without
// letting a single request monopolize a worker for hours.
const maxJobDies = 64

// Per-die states inside a multi-die job (the job reuses the service-wide
// states).
const (
	BatchDiePending = "pending"
	BatchDieDone    = "done"
	BatchDieFailed  = "failed"
)

// BatchDie is one die's progress inside a multi-die job.
type BatchDie struct {
	Die   string `json:"die"`
	Seed  int64  `json:"seed"`
	State string `json:"state"`
	// Plan headline numbers, set once the die is done.
	ReusedFFs       int    `json:"reused_ffs,omitempty"`
	AdditionalCells int    `json:"additional_cells,omitempty"`
	Error           string `json:"error,omitempty"`
	PrepareMS       int64  `json:"prepare_ms,omitempty"`
	SolveMS         int64  `json:"solve_ms,omitempty"`
}

type job struct {
	id    string
	state string
	req   JobRequest
	// specs are the job's dies in run order; dies is their progress.
	specs     []DieSpec
	dies      []BatchDie
	method    wcm3d.Method
	mode      wcm3d.TimingMode
	budget    wcm3d.ATPGBudget
	result    *Report
	err       error
	cancel    context.CancelFunc
	submitted time.Time
	started   *time.Time
	finished  *time.Time
	// abandoned marks a job cut off by the shutdown drain deadline: its
	// terminal transition is deliberately NOT journaled, so a configured
	// WAL replays it as pending on the next boot instead of losing it.
	abandoned bool
	// remote is the peer id currently executing this job after a steal
	// ("" when running locally); remoteOrigin marks a job this node is
	// executing on a peer's behalf (excluded from the local journal,
	// routing and re-stealing).
	remote       string
	remoteOrigin bool
	// onFinish fires exactly once when the job reaches a terminal state
	// (the cluster layer uses it to report stolen-job results back).
	onFinish func(JobStatus)

	// replanMu serializes replans per job — a ReplanPlanner is not safe
	// for concurrent use. Acquired without s.mu (planner work is slow).
	replanMu sync.Mutex
	// planner is the lazily-built incremental replanner, seeded from the
	// cached prepared die on the first replan and rebuilt (replaying
	// replans) after a restart. Guarded by replanMu.
	planner *wcm3d.ReplanPlanner
	// replans is the job's applied delta history in order — the planner's
	// rebuild script. Guarded by s.mu (status() reads its length).
	replans []ReplanRequest
}

// DrainReport summarizes a shutdown: how the accepted jobs ended up. Jobs
// cut off by the drain deadline are reported as canceled and listed in
// Abandoned; with a journal configured they are deliberately left
// un-finalized in the WAL so the next boot replays them instead of
// dropping them silently.
type DrainReport struct {
	Done      int      `json:"done"`
	Failed    int      `json:"failed"`
	Canceled  int      `json:"canceled"`
	Abandoned []string `json:"abandoned,omitempty"`
}

// Service is the WCM daemon core: it validates every request through
// resolve, runs jobs and schedules on one bounded worker pool against an
// LRU die cache, and exposes status, health and metrics. Create with New,
// serve with Handler, stop with Shutdown.
type Service struct {
	cfg     Config
	metrics *Metrics
	dies    *dieCache
	pool    *pool
	gcStop  chan struct{} // closed by Shutdown; ends the retention sweeper
	// cluster is the optional cluster view (AttachCluster); set once
	// before Handler, read without locking afterwards.
	cluster ClusterView

	mu     sync.Mutex
	closed bool
	seq    int
	jobs   map[string]*job
}

// New builds a Service and starts its worker pool and retention sweeper.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 16
	}
	if cfg.RetentionTTL <= 0 {
		cfg.RetentionTTL = time.Hour
	}
	if cfg.MaxFinished <= 0 {
		cfg.MaxFinished = 1024
	}
	if cfg.GCInterval <= 0 {
		cfg.GCInterval = time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	if cfg.Prepare == nil {
		cfg.Prepare = DefaultPrepare
	}
	m := &Metrics{}
	s := &Service{
		cfg:     cfg,
		metrics: m,
		dies:    newDieCache(cfg.CacheCapacity, m),
		pool:    newPool(cfg.Workers, cfg.QueueDepth),
		gcStop:  make(chan struct{}),
		jobs:    make(map[string]*job),
	}
	go s.gcLoop()
	return s
}

// Metrics exposes the counters (tests assert on them).
func (s *Service) Metrics() *Metrics { return s.metrics }

// resolve validates a request, expands its dies and fills in defaults.
func (s *Service) resolve(req JobRequest) (*job, error) {
	j := &job{req: req}
	selected := 0
	for _, set := range []bool{req.Profile != "", req.Netlist != "", req.All, req.Circuit != "", len(req.Profiles) > 0} {
		if set {
			selected++
		}
	}
	var profiles []wcm3d.Profile
	switch {
	case selected != 1:
		return nil, errors.New("pass exactly one of profile, netlist, all, circuit or profiles")
	case req.selectsDies() && (req.Refine || req.Spares != nil):
		// Refine funds half the remaining deadline per die, and spares only
		// serve replan, which multi-die jobs do not offer.
		return nil, errors.New("refine and spares apply to single-die jobs only")
	case req.Netlist != "":
		// Parse the upload synchronously so a malformed netlist is a clean
		// 400 at submit time instead of an async job failure. The prepare
		// path re-parses, but only once per unique source thanks to the die
		// cache, and parsing is cheap next to placement and timing.
		if _, err := wcm3d.ParseNetlist("upload", strings.NewReader(req.Netlist)); err != nil {
			return nil, fmt.Errorf("netlist: %w", err)
		}
		sum := sha256.Sum256([]byte(req.Netlist))
		j.specs = []DieSpec{{Source: req.Netlist, Name: "bench:" + hex.EncodeToString(sum[:6])}}
	case req.Profile != "":
		p, err := wcm3d.ProfileByName(req.Profile)
		if err != nil {
			return nil, err
		}
		profiles = []wcm3d.Profile{p}
	case req.All:
		profiles = wcm3d.ITC99Profiles()
	case req.Circuit != "":
		if profiles = wcm3d.CircuitProfiles(req.Circuit); len(profiles) == 0 {
			return nil, fmt.Errorf("unknown circuit %q", req.Circuit)
		}
	default:
		for _, name := range req.Profiles {
			p, err := wcm3d.ProfileByName(name)
			if err != nil {
				return nil, err
			}
			profiles = append(profiles, p)
		}
	}
	if len(profiles) > maxJobDies {
		return nil, fmt.Errorf("job names %d dies, cap is %d", len(profiles), maxJobDies)
	}
	for _, p := range profiles {
		j.specs = append(j.specs, DieSpec{Profile: p, Name: p.Name()})
	}
	if req.Spares != nil {
		if req.Spares.Inbound < 0 || req.Spares.Outbound < 0 {
			return nil, fmt.Errorf("spare counts must be >= 0, got %+v", *req.Spares)
		}
		for i := range j.specs {
			j.specs[i].Spares = *req.Spares
			if *req.Spares != (wcm3d.SpareSpec{}) {
				// The spare sites change the prepared netlist, so the cache
				// key must distinguish spared preparations.
				j.specs[i].Name = fmt.Sprintf("%s+s%di%do", j.specs[i].Name, req.Spares.Inbound, req.Spares.Outbound)
			}
		}
	}
	if req.Seed == 0 {
		req.Seed = 1
		j.req.Seed = 1
	}
	j.dies = make([]BatchDie, len(j.specs))
	for i := range j.specs {
		j.specs[i].Seed = req.Seed
		j.dies[i] = BatchDie{Die: j.specs[i].Name, Seed: req.Seed, State: BatchDiePending}
	}
	var err error
	if j.method, j.mode, j.budget, err = req.settings(); err != nil {
		return nil, err
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	return j, nil
}

// effectiveTimeout clamps a requested timeout_ms to the server-side cap; a
// zero request gets the cap directly.
func (s *Service) effectiveTimeout(ms int64) time.Duration {
	d := s.cfg.MaxTimeout
	if ms > 0 {
		if t := time.Duration(ms) * time.Millisecond; t < d {
			d = t
		}
	}
	return d
}

// Submit validates req and queues it. It returns the queued job's status,
// or ErrQueueFull under backpressure, ErrShuttingDown after Shutdown,
// ErrJournal when the write-ahead log cannot make the job durable, and
// plain validation errors for malformed requests.
func (s *Service) Submit(req JobRequest) (JobStatus, error) {
	j, err := s.resolve(req)
	if err != nil {
		return JobStatus{}, err
	}
	return s.enqueue(j)
}

// enqueue assigns an id to a resolved job, journals it (unless the job is
// remote-origin or no journal is configured), and hands it to the pool.
// The journal write happens before the pool can run the job, so every job
// a client ever saw accepted is recoverable after a crash.
func (s *Service) enqueue(j *job) (JobStatus, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobStatus{}, ErrShuttingDown
	}
	s.seq++
	prefix := "j"
	if j.req.selectsDies() {
		prefix = "b"
	}
	j.id = fmt.Sprintf("%s-%06d", prefix, s.seq)
	j.state = StateQueued
	j.submitted = time.Now()
	s.jobs[j.id] = j
	s.gcLocked(time.Now())
	s.mu.Unlock()

	if s.cfg.Journal != nil && !j.remoteOrigin {
		if err := s.cfg.Journal.Submit(j.id, j.req); err != nil {
			s.mu.Lock()
			delete(s.jobs, j.id)
			s.mu.Unlock()
			s.metrics.WALErrors.Add(1)
			return JobStatus{}, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	// Snapshot before admitting: once a worker holds the job it may move
	// it past queued before this call returns.
	st := s.status(j)
	if err := s.admit(func(ctx context.Context) { s.runJob(ctx, j) }); err != nil {
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		if !j.remoteOrigin {
			// Neutralize the submit record: the client was refused, so the
			// job must not rise from the log on the next boot.
			s.journalWrite("cancel "+j.id+" after rejection", func(jl Journal) error { return jl.Cancel(j.id) })
		}
		return JobStatus{}, err
	}
	s.metrics.JobsQueued.Add(1)
	return st, nil
}

// admit hands a task to the pool, counting a full queue as a rejection.
func (s *Service) admit(task func(context.Context)) error {
	err := s.pool.trySubmit(task)
	if errors.Is(err, ErrQueueFull) {
		s.metrics.JobsRejected.Add(1)
	}
	return err
}

// Job returns the status of one job.
func (s *Service) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return s.status(j), true
}

// Jobs lists every retained job, oldest first.
func (s *Service) Jobs() []JobStatus { return s.jobsAfter("", "") }

// jobsAfter lists the retained jobs whose ids follow after ("" = every
// job), oldest first, keeping only those in state when it is set.
func (s *Service) jobsAfter(state, after string) []JobStatus {
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if idLess(after, j.id) {
			js = append(js, j)
		}
	}
	s.mu.Unlock()
	sort.Slice(js, func(a, b int) bool { return idLess(js[a].id, js[b].id) })
	out := make([]JobStatus, 0, len(js))
	for _, j := range js {
		if st := s.status(j); state == "" || st.State == state {
			out = append(out, st)
		}
	}
	return out
}

// Cancel cancels a job: a queued job is marked canceled before it starts;
// a running job's context is cancelled so it aborts at the next stage
// boundary. It reports whether the id was known.
func (s *Service) Cancel(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, false
	}
	canceledQueued := false
	switch j.state {
	case StateQueued:
		s.finishLocked(j, StateCanceled, nil, context.Canceled)
		canceledQueued = true
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	if canceledQueued {
		s.journalFinish(j)
		s.notifyFinish(j)
	}
	return s.status(j), true
}

// Dies lists the cached prepared dies, most recently used first.
func (s *Service) Dies() []DieInfo { return s.dies.snapshot() }

// Healthy reports whether the service accepts work.
func (s *Service) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// Snapshot returns the /metrics document.
func (s *Service) Snapshot() MetricsSnapshot {
	snap := s.metrics.snapshot()
	s.mu.Lock()
	snap.Jobs.Retained = len(s.jobs)
	s.mu.Unlock()
	snap.Cache.Entries = s.dies.len()
	snap.Cache.Capacity = s.cfg.CacheCapacity
	snap.Queue.Depth = s.pool.depth()
	snap.Queue.Capacity = s.cfg.QueueDepth
	snap.Queue.Workers = s.cfg.Workers
	return snap
}

// gcLoop runs the retention sweep on a ticker until Shutdown.
func (s *Service) gcLoop() {
	t := time.NewTicker(s.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			s.gcLocked(time.Now())
			s.mu.Unlock()
		case <-s.gcStop:
			return
		}
	}
}

// gcLocked applies the retention policy: finished jobs older than
// RetentionTTL are dropped, then the oldest finished entries beyond
// MaxFinished. Queued and running jobs are never touched. Callers hold
// s.mu.
func (s *Service) gcLocked(now time.Time) {
	cutoff := now.Add(-s.cfg.RetentionTTL)
	finished := make([]*job, 0, len(s.jobs))
	for id, j := range s.jobs {
		if j.finished == nil {
			continue
		}
		if j.finished.Before(cutoff) {
			delete(s.jobs, id)
			s.metrics.JobsPruned.Add(1)
			continue
		}
		finished = append(finished, j)
	}
	n := len(finished) - s.cfg.MaxFinished
	if n <= 0 {
		return
	}
	sort.Slice(finished, func(a, b int) bool {
		fa, fb := finished[a], finished[b]
		if !fa.finished.Equal(*fb.finished) {
			return fa.finished.Before(*fb.finished)
		}
		return idLess(fa.id, fb.id)
	})
	for _, j := range finished[:n] {
		delete(s.jobs, j.id)
		s.metrics.JobsPruned.Add(1)
	}
}

// Shutdown stops accepting work and drains accepted jobs. If ctx expires
// before the drain completes, in-flight jobs are cancelled and reported as
// canceled in the DrainReport — the partial state a supervisor logs on the
// way down.
func (s *Service) Shutdown(ctx context.Context) (DrainReport, error) {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	s.mu.Unlock()
	if first {
		close(s.gcStop)
	}
	err := s.pool.shutdown(ctx)
	var rep DrainReport
	s.mu.Lock()
	for _, j := range s.jobs {
		switch j.state {
		case StateDone:
			rep.Done++
		case StateFailed:
			rep.Failed++
		case StateCanceled:
			rep.Canceled++
		case StateQueued, StateRunning:
			// The pool has exited, so nothing will run these; account for
			// them as canceled. They are abandoned, not finished: no
			// terminal record reaches the journal, so a configured WAL
			// replays them on the next boot instead of dropping them.
			j.abandoned = true
			s.finishLocked(j, StateCanceled, nil, context.Canceled)
			rep.Canceled++
		}
		if j.abandoned && !j.remoteOrigin {
			rep.Abandoned = append(rep.Abandoned, j.id)
		}
	}
	s.mu.Unlock()
	sort.Strings(rep.Abandoned)
	return rep, err
}

// status snapshots a job under the service lock.
func (s *Service) status(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Request:     j.req,
		Result:      j.result,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Replans:     len(j.replans),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.req.selectsDies() {
		st.Dies = append([]BatchDie(nil), j.dies...)
	}
	return st
}

// finishLocked moves a job to a terminal state; callers hold s.mu.
func (s *Service) finishLocked(j *job, state string, rep *Report, err error) {
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		return
	}
	j.state = state
	j.result = rep
	j.err = err
	now := time.Now()
	j.finished = &now
	switch state {
	case StateDone:
		s.metrics.JobsDone.Add(1)
	case StateFailed:
		s.metrics.JobsFailed.Add(1)
	case StateCanceled:
		s.metrics.JobsCanceled.Add(1)
	}
}

// runJob executes one job on a pool worker under the job's own deadline.
func (s *Service) runJob(poolCtx context.Context, j *job) {
	s.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithTimeout(poolCtx, s.effectiveTimeout(j.req.TimeoutMS))
	j.cancel = cancel
	j.state = StateRunning
	now := time.Now()
	j.started = &now
	s.mu.Unlock()
	defer cancel()

	if !j.remoteOrigin {
		s.journalStart(j.id)
	}
	s.metrics.JobsRunning.Add(1)
	start := time.Now()
	rep, err := s.runDies(ctx, j)
	s.metrics.ObserveOutcome(StageTotal, time.Since(start), err)
	s.metrics.JobsRunning.Add(-1)

	s.mu.Lock()
	switch {
	case err == nil:
		s.finishLocked(j, StateDone, rep, nil)
	case ctx.Err() != nil && isContextErr(err):
		// Canceled only when it was THIS job's context (cancel, deadline
		// or shutdown) — a context error that bubbled out of shared
		// machinery while this job is still live is a plain failure, not
		// someone else's cancellation.
		if poolCtx.Err() != nil {
			// The drain deadline expired, not the job's own deadline or a
			// client cancel: abandon instead of finalizing, so the WAL
			// replays the job on the next boot.
			j.abandoned = true
		}
		s.finishLocked(j, StateCanceled, nil, err)
	default:
		s.finishLocked(j, StateFailed, nil, err)
	}
	s.mu.Unlock()
	s.journalFinish(j)
	s.notifyFinish(j)
}

// runDies executes a job's dies in order under the job's context. A die
// that fails does not stop the others; a die cut short by the job's
// cancel or deadline stays pending and ends the run with the context
// error. A single-die job returns its die's report and error as they are;
// a multi-die job reports per-die outcomes in j.dies and fails when any
// die did.
func (s *Service) runDies(ctx context.Context, j *job) (*Report, error) {
	var rep *Report
	var err error
	failed := 0
	for i, spec := range j.specs {
		row := j.dies[i]
		start := time.Now()
		r, derr := s.execute(ctx, j, spec, &row)
		if derr != nil && ctx.Err() != nil && isContextErr(derr) {
			return nil, derr
		}
		row.SolveMS = time.Since(start).Milliseconds() - row.PrepareMS
		if derr != nil {
			row.State, row.Error = BatchDieFailed, derr.Error()
			failed++
			err = derr
		} else {
			row.State, row.ReusedFFs, row.AdditionalCells = BatchDieDone, r.ReusedFFs, r.AdditionalCells
			rep = r
		}
		s.mu.Lock()
		j.dies[i] = row
		s.mu.Unlock()
	}
	if !j.req.selectsDies() {
		return rep, err
	}
	if failed > 0 {
		return nil, fmt.Errorf("%d of %d dies failed", failed, len(j.specs))
	}
	return nil, nil
}

// isContextErr reports whether err is a cancellation or deadline error.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// preparer wraps cfg.Prepare for one spec with prepare-stage metrics that
// record every outcome — success, failure and abort alike.
func (s *Service) preparer(spec DieSpec) func(context.Context) (*wcm3d.Die, error) {
	return func(ctx context.Context) (*wcm3d.Die, error) {
		start := time.Now()
		d, err := s.cfg.Prepare(ctx, spec)
		s.metrics.ObserveOutcome(StagePrepare, time.Since(start), err)
		return d, err
	}
}

// execute prepares one of j's dies through the die cache and runs it
// through RunDie. Every stage records its latency whatever the outcome;
// the time spent getting the prepared die also lands in row.PrepareMS.
func (s *Service) execute(ctx context.Context, j *job, spec DieSpec, row *BatchDie) (*Report, error) {
	start := time.Now()
	die, err := s.dies.get(ctx, DieKey{Name: spec.Name, Seed: spec.Seed}, s.preparer(spec))
	row.PrepareMS = time.Since(start).Milliseconds()
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", spec.Name, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return RunDie(ctx, j.req, spec.Name, die, s.metrics)
}

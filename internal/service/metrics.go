package service

import (
	"sync/atomic"
	"time"
)

// Metrics holds the daemon's expvar-style counters and per-stage latency
// histograms. All fields are safe for concurrent use; Snapshot produces the
// JSON document served at GET /metrics.
type Metrics struct {
	// Monotonic job counters. Queued counts every accepted submission;
	// Rejected counts job and schedule submissions bounced by
	// backpressure (HTTP 429).
	JobsQueued   atomic.Int64
	JobsDone     atomic.Int64
	JobsFailed   atomic.Int64
	JobsCanceled atomic.Int64
	JobsRejected atomic.Int64
	// JobsRunning is a gauge of jobs currently executing.
	JobsRunning atomic.Int64
	// JobsPruned counts finished jobs dropped by the retention policy
	// (TTL expiry or the finished-entries cap).
	JobsPruned atomic.Int64
	// JobsRecovered counts jobs reconstructed from the write-ahead log at
	// boot (re-queued pending/orphaned jobs plus restored finished ones).
	JobsRecovered atomic.Int64
	// JobsStolen counts queued jobs handed to stealing peers;
	// JobsReclaimed counts stolen jobs re-queued locally after their
	// thief was declared dead.
	JobsStolen    atomic.Int64
	JobsReclaimed atomic.Int64
	// WALErrors counts non-fatal journal write failures (start/finish
	// records); submission-path journal failures refuse the job instead.
	WALErrors atomic.Int64

	// Replan counters: POST /v1/jobs/{id}/replan outcomes. Done counts
	// applied deltas, Failed counts rejected or failed ones (bad faults,
	// exhausted spares, evicted dies), Recovered counts deltas replayed
	// from the write-ahead log at boot.
	ReplansDone      atomic.Int64
	ReplansFailed    atomic.Int64
	ReplansRecovered atomic.Int64

	// VerifyFailures counts jobs whose independent verification found
	// violations — each one is an optimizer/verifier disagreement worth an
	// operator's attention, even though the job itself still succeeds.
	VerifyFailures atomic.Int64

	// RefineImproved counts refine=true jobs where the solver portfolio
	// found a verified plan strictly better than the greedy heuristic's;
	// RefineCellsSaved accumulates the wrapper cells those improvements
	// removed. Together they answer "is the refinement budget paying for
	// itself" straight from /metrics. RefineSkipped counts refine=true
	// jobs that reached the stage with less than MinRefineBudget of wall
	// clock remaining and skipped the portfolio entirely — a rising count
	// means job timeouts are too tight to ever fund refinement.
	RefineImproved   atomic.Int64
	RefineCellsSaved atomic.Int64
	RefineSkipped    atomic.Int64

	// Die-cache counters. A hit is any request served by an existing entry
	// (including one still being prepared — the single-flight path); a
	// miss is a request that triggered a preparation. An abort is an
	// in-flight preparation cancelled because every interested job went
	// away before it finished.
	CacheHits      atomic.Int64
	CacheMisses    atomic.Int64
	CacheEvictions atomic.Int64
	CacheAborts    atomic.Int64

	stages   [numStages]Histogram
	outcomes [numStages][numOutcomes]atomic.Int64
}

// Stage outcomes: how a timed stage ended. Every stage execution is
// recorded under exactly one outcome, so failed and cancelled runs show up
// in /metrics latency instead of silently vanishing.
const (
	outcomeOK = iota
	outcomeFailed
	outcomeCanceled
	numOutcomes
)

// Stage labels one timed phase of a job's execution.
type Stage int

// The instrumented stages, in execution order.
const (
	StagePrepare  Stage = iota // die generation + placement + timing
	StageMinimize              // the WCM solver
	StageRefine                // solver-portfolio refinement (refine=true)
	StageSignoff               // functional-mode timing check
	StageATPG                  // stuck-at evaluation + chain build
	StageVerify                // independent plan verification (verify=true)
	StageTotal                 // whole job, submit-to-finish
	StageSchedule              // whole stack scheduling run (/v1/schedules)
	StageReplan                // incremental TSV-repair replan (/v1/jobs/{id}/replan)
	numStages
)

func (s Stage) String() string {
	switch s {
	case StagePrepare:
		return "prepare"
	case StageMinimize:
		return "minimize"
	case StageRefine:
		return "refine"
	case StageSignoff:
		return "signoff"
	case StageATPG:
		return "atpg"
	case StageVerify:
		return "verify"
	case StageTotal:
		return "total"
	case StageSchedule:
		return "schedule"
	case StageReplan:
		return "replan"
	default:
		return "unknown"
	}
}

// ObserveOutcome records a stage latency together with how the stage
// ended: ok (err == nil), canceled (a context error), or failed.
func (m *Metrics) ObserveOutcome(s Stage, d time.Duration, err error) {
	if s < 0 || s >= numStages {
		return
	}
	m.stages[s].Observe(d)
	switch {
	case err == nil:
		m.outcomes[s][outcomeOK].Add(1)
	case isContextErr(err):
		m.outcomes[s][outcomeCanceled].Add(1)
	default:
		m.outcomes[s][outcomeFailed].Add(1)
	}
}

// latencyBucketsMS are the histogram upper bounds, in milliseconds; a final
// implicit +Inf bucket catches the rest.
var latencyBucketsMS = [...]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}

// Histogram is a fixed-bucket latency histogram with atomic counters.
type Histogram struct {
	counts [len(latencyBucketsMS) + 1]atomic.Int64
	count  atomic.Int64
	sumUS  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumUS.Add(d.Microseconds())
}

// HistogramSnapshot is the JSON form of one histogram. For stage
// histograms the outcome counters split Count by how each run ended.
type HistogramSnapshot struct {
	Count    int64            `json:"count"`
	SumMS    float64          `json:"sum_ms"`
	OK       int64            `json:"ok"`
	Failed   int64            `json:"failed"`
	Canceled int64            `json:"canceled"`
	Buckets  []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one cumulative histogram bucket; LeMS <= 0 marks the
// overflow (+Inf) bucket.
type BucketSnapshot struct {
	LeMS  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		SumMS: float64(h.sumUS.Load()) / 1000,
	}
	if s.Count == 0 {
		return s
	}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		b := BucketSnapshot{Count: cum}
		if i < len(latencyBucketsMS) {
			b.LeMS = latencyBucketsMS[i]
		} else {
			b.LeMS = -1 // +Inf
		}
		s.Buckets = append(s.Buckets, b)
	}
	return s
}

// MetricsSnapshot is the document served at GET /metrics.
type MetricsSnapshot struct {
	Jobs struct {
		Queued   int64 `json:"queued"`
		Running  int64 `json:"running"`
		Done     int64 `json:"done"`
		Failed   int64 `json:"failed"`
		Canceled int64 `json:"canceled"`
		Rejected int64 `json:"rejected"`
		// Retained is a gauge of jobs currently held in the job table;
		// Pruned counts jobs dropped by the retention policy.
		Retained int   `json:"retained"`
		Pruned   int64 `json:"pruned"`
		// Recovered counts jobs replayed from the WAL at boot; Stolen and
		// Reclaimed count cluster work-stealing traffic (jobs handed out,
		// jobs taken back from dead thieves).
		Recovered int64 `json:"recovered"`
		Stolen    int64 `json:"stolen"`
		Reclaimed int64 `json:"reclaimed"`
	} `json:"jobs"`
	WAL struct {
		// Errors counts non-fatal journal write failures.
		Errors int64 `json:"errors"`
	} `json:"wal"`
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
		Aborts    int64 `json:"aborts"`
		Entries   int   `json:"entries"`
		Capacity  int   `json:"capacity"`
	} `json:"cache"`
	Queue struct {
		Depth    int `json:"depth"`
		Capacity int `json:"capacity"`
		Workers  int `json:"workers"`
	} `json:"queue"`
	Replan struct {
		Done      int64 `json:"done"`
		Failed    int64 `json:"failed"`
		Recovered int64 `json:"recovered"`
	} `json:"replan"`
	Verify struct {
		Failures int64 `json:"failures"`
	} `json:"verify"`
	Refine struct {
		Improved   int64 `json:"improved"`
		CellsSaved int64 `json:"cells_saved"`
		Skipped    int64 `json:"skipped"`
	} `json:"refine"`
	LatencyMS map[string]HistogramSnapshot `json:"latency_ms"`
}

func (m *Metrics) snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	s.Jobs.Queued = m.JobsQueued.Load()
	s.Jobs.Running = m.JobsRunning.Load()
	s.Jobs.Done = m.JobsDone.Load()
	s.Jobs.Failed = m.JobsFailed.Load()
	s.Jobs.Canceled = m.JobsCanceled.Load()
	s.Jobs.Rejected = m.JobsRejected.Load()
	s.Jobs.Pruned = m.JobsPruned.Load()
	s.Jobs.Recovered = m.JobsRecovered.Load()
	s.Jobs.Stolen = m.JobsStolen.Load()
	s.Jobs.Reclaimed = m.JobsReclaimed.Load()
	s.WAL.Errors = m.WALErrors.Load()
	s.Replan.Done = m.ReplansDone.Load()
	s.Replan.Failed = m.ReplansFailed.Load()
	s.Replan.Recovered = m.ReplansRecovered.Load()
	s.Verify.Failures = m.VerifyFailures.Load()
	s.Refine.Improved = m.RefineImproved.Load()
	s.Refine.CellsSaved = m.RefineCellsSaved.Load()
	s.Refine.Skipped = m.RefineSkipped.Load()
	s.Cache.Hits = m.CacheHits.Load()
	s.Cache.Misses = m.CacheMisses.Load()
	s.Cache.Evictions = m.CacheEvictions.Load()
	s.Cache.Aborts = m.CacheAborts.Load()
	s.LatencyMS = make(map[string]HistogramSnapshot, numStages)
	for st := Stage(0); st < numStages; st++ {
		hs := m.stages[st].snapshot()
		hs.OK = m.outcomes[st][outcomeOK].Load()
		hs.Failed = m.outcomes[st][outcomeFailed].Load()
		hs.Canceled = m.outcomes[st][outcomeCanceled].Load()
		s.LatencyMS[st.String()] = hs
	}
	return s
}

package service

import (
	"fmt"
	"net/http"
	"time"
)

// maxJobDies caps how many dies one job may select; the full Table II
// sweep is 24, so the cap leaves room for multi-seed sweeps without
// letting a single request monopolize a worker for hours.
const maxJobDies = 64

// BatchRequest is the body of POST /v1/batches: a multi-die job in the
// batch route's spelling. Exactly one of All, Circuit or Profiles selects
// the dies.
type BatchRequest struct {
	// All runs the full 24-die Table II sweep.
	All bool `json:"all,omitempty"`
	// Circuit expands to one benchmark family's four dies ("b12").
	Circuit string `json:"circuit,omitempty"`
	// Profiles lists individual Table II dies ("b12/1").
	Profiles []string `json:"profiles,omitempty"`
	// Seed drives generation and placement for every die (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Method is ours | agrawal | li | fullwrap (default ours).
	Method string `json:"method,omitempty"`
	// Timing is tight | loose (default tight).
	Timing string `json:"timing,omitempty"`
	// Verify asks for independent plan verification per die.
	Verify bool `json:"verify,omitempty"`
	// MaxInFlight is accepted for compatibility and range-checked (0-8),
	// but changes nothing: a job runs its dies one at a time, and the
	// prepared-die LRU cache bounds how many stay resident.
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// TimeoutMS bounds the whole batch once it starts running; clamped to
	// the server's MaxTimeout cap, which applies outright when 0.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// JobRequest is the multi-die job a batch body submits. The write-ahead
// log replays batch records through it too, so a batch journaled as a
// bsubmit record recovers as the same job the route would submit today.
func (r BatchRequest) JobRequest() JobRequest {
	return JobRequest{
		All: r.All, Circuit: r.Circuit, Profiles: r.Profiles,
		Seed: r.Seed, Method: r.Method, Timing: r.Timing,
		Verify: r.Verify, TimeoutMS: r.TimeoutMS,
	}
}

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

// BatchStatus is the batch route's view of a multi-die job, returned by
// POST /v1/batches and GET /v1/batches/{id}.
type BatchStatus struct {
	ID      string       `json:"id"`
	State   string       `json:"state"`
	Request BatchRequest `json:"request"`
	// Total/Completed/Failed summarize progress for cheap polling; Dies
	// carries the per-die detail.
	Total       int        `json:"total"`
	Completed   int        `json:"completed"`
	Failed      int        `json:"failed"`
	Dies        []BatchDie `json:"dies"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// batchView renders a multi-die job's status in the batch route's shape.
func batchView(st JobStatus) BatchStatus {
	r := st.Request
	b := BatchStatus{
		ID:    st.ID,
		State: st.State,
		Request: BatchRequest{
			All: r.All, Circuit: r.Circuit, Profiles: r.Profiles,
			Seed: r.Seed, Method: r.Method, Timing: r.Timing,
			Verify: r.Verify, TimeoutMS: r.TimeoutMS,
		},
		Total:       len(st.Dies),
		Dies:        st.Dies,
		Error:       st.Error,
		SubmittedAt: st.SubmittedAt,
		StartedAt:   st.StartedAt,
		FinishedAt:  st.FinishedAt,
	}
	for _, d := range st.Dies {
		switch d.State {
		case BatchDieDone:
			b.Completed++
		case BatchDieFailed:
			b.Failed++
		}
	}
	return b
}

// batchJob looks up a multi-die job for the batch routes; single-die jobs
// are not batches and read as unknown there.
func (s *Service) batchJob(id string) (JobStatus, bool) {
	st, ok := s.Job(id)
	return st, ok && st.Request.selectsDies()
}

func (s *Service) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.MaxInFlight < 0 || req.MaxInFlight > 8 {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("max_in_flight must be in [0,8], got %d", req.MaxInFlight)})
		return
	}
	st, err := s.Submit(req.JobRequest())
	writeSubmitted(w, err, "/v1/batches/"+st.ID, batchView(st))
}

func (s *Service) handleBatches(w http.ResponseWriter, r *http.Request) {
	out := []BatchStatus{}
	for _, st := range s.Jobs() {
		if st.Request.selectsDies() {
			out = append(out, batchView(st))
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Batches []BatchStatus `json:"batches"`
	}{Batches: out})
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	st, ok := s.batchJob(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such batch"})
		return
	}
	writeJSON(w, http.StatusOK, batchView(st))
}

func (s *Service) handleBatchCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.batchJob(id)
	if ok {
		st, ok = s.Cancel(id)
	}
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such batch"})
		return
	}
	writeJSON(w, http.StatusOK, batchView(st))
}

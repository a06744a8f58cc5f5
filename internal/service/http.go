package service

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"wcm3d"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs      submit a minimize job over one die (profile, netlist) or several
//	                     (all, circuit, profiles) (202, 307, 400, 413, 429, 500, 503);
//	                     ?verify=true requests independent plan verification
//	GET    /v1/jobs      list retained jobs (?state=<state>&limit=<n>&cursor=<tok>)
//	GET    /v1/jobs/{id} poll one job
//	DELETE /v1/jobs/{id} cancel one job
//	POST   /v1/jobs/{id}/replan apply a TSV-fault delta and replan incrementally
//	                     (200, 400, 404, 409, 410, 413; see docs/REPLAN.md)
//	POST   /v1/schedules wrapper/TAM co-optimize a stack; queued on the job pool,
//	                     answered when the run ends (200, 400, 413, 429, 503)
//	GET    /v1/dies      list cached prepared dies
//	GET    /healthz      liveness (503 once shutdown begins); cluster-aware
//	GET    /metrics      expvar-style counters and latency histograms
//
// With a cluster attached (AttachCluster), three more routes exist:
//
//	GET    /v1/cluster              membership: per-peer liveness, queue depth, shard map
//	POST   /v1/cluster/steal        hand queued jobs to a pulling peer
//	POST   /v1/cluster/complete/{id} apply a thief's terminal report to a stolen job
//
// and POST /v1/jobs submissions whose die key is owned by a live peer are
// 307-redirected to the owner, so each die is prepared on exactly one node
// (multi-die jobs run where they were submitted).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/schedules", s.handleSchedule)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/jobs/{id}/replan", s.handleReplan)
	mux.HandleFunc("GET /v1/dies", s.handleDies)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cluster != nil {
		mux.HandleFunc("GET /v1/cluster", s.handleClusterInfo)
		mux.HandleFunc("POST /v1/cluster/steal", s.handleSteal)
		mux.HandleFunc("POST /v1/cluster/complete/{id}", s.handleCompleteStolen)
	}
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

// errStatus maps the service's sentinel errors onto HTTP statuses.
var errStatus = map[error]int{
	ErrQueueFull:         http.StatusTooManyRequests,
	ErrShuttingDown:      http.StatusServiceUnavailable,
	ErrJournal:           http.StatusInternalServerError,
	ErrNoSuchJob:         http.StatusNotFound,
	ErrDieEvicted:        http.StatusGone,
	ErrDeltaTooLarge:     http.StatusRequestEntityTooLarge,
	ErrReplanJobNotDone:  http.StatusConflict,
	wcm3d.ErrNoSpares:    http.StatusConflict,
	ErrReplanUnsupported: http.StatusBadRequest,
	wcm3d.ErrBadTSVFault: http.StatusBadRequest,
	wcm3d.ErrUnknownTSV:  http.StatusBadRequest,
}

// writeError answers err with the status errStatus maps it to, or with
// fallback when it wraps none of them. A 429 carries Retry-After.
func writeError(w http.ResponseWriter, err error, fallback int) {
	code := fallback
	for target, c := range errStatus {
		if errors.Is(err, target) {
			code = c
		}
	}
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// maxBodyBytes bounds request bodies on the POST endpoints; an inline
// .bench netlist for the largest Table II die fits comfortably, a runaway
// upload gets a clean 413 instead of an OOM.
const maxBodyBytes = 8 << 20

// decodeBody strictly decodes a bounded JSON request body. It writes the
// error response itself (413 for an oversized body, 400 for anything
// malformed) and reports whether decoding succeeded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: "request body too large: " + err.Error()})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	switch r.URL.Query().Get("verify") {
	case "1", "true":
		req.Verify = true
	}
	switch r.URL.Query().Get("refine") {
	case "1", "true":
		req.Refine = true
	}
	j, err := s.resolve(req)
	if err != nil {
		writeError(w, err, http.StatusBadRequest)
		return
	}
	if s.cluster != nil && !req.selectsDies() {
		// Route the submission to the node owning its die key, so each
		// die is prepared on exactly one node fleet-wide. 307 preserves
		// the method and body; Go's http.Client follows it transparently.
		if ownerURL, self := s.cluster.Route(j.specs[0].Name, j.specs[0].Seed); !self {
			w.Header().Set("Location", ownerURL+r.URL.RequestURI())
			writeJSON(w, http.StatusTemporaryRedirect,
				errorBody{Error: "die key owned by peer, resubmit to " + ownerURL})
			return
		}
	}
	st, err := s.enqueue(j)
	if err != nil {
		writeError(w, err, http.StatusBadRequest)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

// handleSchedule answers a stack scheduling request with the finished
// report (200). The run queues on the job pool like a job; the request's
// context carries client-disconnect cancellation into it.
func (s *Service) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req ScheduleRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rep, err := s.ScheduleStack(r.Context(), req)
	if err != nil {
		writeError(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// cursorStart is the documented bootstrap cursor: "scan from the oldest
// retained job". Every other accepted cursor is a `next` token from an
// earlier response.
const cursorStart = "0"

// encodeCursor wraps a job id into the opaque resume token echoed as
// `next`: the listing continues strictly after this id.
func encodeCursor(id string) string {
	return base64.RawURLEncoding.EncodeToString([]byte("v1:" + id))
}

// decodeCursor reverses encodeCursor; cursorStart and the absent cursor
// map to the beginning.
func decodeCursor(tok string) (after string, err error) {
	if tok == "" || tok == cursorStart {
		return "", nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil || !strings.HasPrefix(string(raw), "v1:") {
		return "", errors.New("malformed cursor")
	}
	return strings.TrimPrefix(string(raw), "v1:"), nil
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := q.Get("state")
	switch state {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "unknown state " + strconv.Quote(state)})
		return
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "limit must be a non-negative integer"})
			return
		}
		limit = n
	}
	type envelope struct {
		Jobs []JobStatus `json:"jobs"`
		// Next is the opaque cursor resuming the listing strictly after
		// the last returned job; echo it back as ?cursor= to continue.
		Next string `json:"next,omitempty"`
	}
	tok := q.Get("cursor")
	after, err := decodeCursor(tok)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed cursor"})
		return
	}
	env := envelope{Jobs: s.jobsAfter(state, after), Next: tok}
	if n := len(env.Jobs); limit > 0 && n > limit {
		// Cursor mode pages forward: the FIRST limit jobs past the cursor.
		// Without a cursor, limit keeps the most recent jobs.
		if tok != "" {
			env.Jobs = env.Jobs[:limit]
		} else {
			env.Jobs = env.Jobs[n-limit:]
		}
	}
	// Next resumes after the last listed job; an empty cursor page
	// re-echoes the request cursor so pollers can keep tailing.
	if n := len(env.Jobs); n > 0 {
		env.Next = encodeCursor(env.Jobs[n-1].ID)
	}
	writeJSON(w, http.StatusOK, env)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleReplan answers 200 with the replan, or the status errStatus maps
// its failure to: 404, 409, 410, 413 or 400; anything unmapped is a 500.
func (s *Service) handleReplan(w http.ResponseWriter, r *http.Request) {
	var req ReplanRequest
	if !decodeBody(w, r, &req) {
		return
	}
	st, err := s.Replan(r.PathValue("id"), req)
	if err != nil {
		writeError(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleDies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Dies []DieInfo `json:"dies"`
	}{Dies: s.Dies()})
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	type clusterHealth struct {
		Self  string `json:"self"`
		Alive int    `json:"alive"`
		Total int    `json:"total"`
	}
	type health struct {
		Status  string         `json:"status"`
		Cluster *clusterHealth `json:"cluster,omitempty"`
	}
	var ch *clusterHealth
	if s.cluster != nil {
		info := s.cluster.Info()
		ch = &clusterHealth{Self: info.Self, Total: len(info.Peers)}
		for _, p := range info.Peers {
			if p.Alive {
				ch.Alive++
			}
		}
	}
	if !s.Healthy() {
		writeJSON(w, http.StatusServiceUnavailable, health{Status: "shutting down", Cluster: ch})
		return
	}
	writeJSON(w, http.StatusOK, health{Status: "ok", Cluster: ch})
}

// handleClusterInfo serves the membership snapshot: per-peer liveness,
// queue depth and the shard map. Peers also poll it as the liveness +
// load probe feeding their steal decisions.
func (s *Service) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	info := s.cluster.Info()
	info.QueueDepth = s.QueueDepth()
	writeJSON(w, http.StatusOK, info)
}

// stealRequest is the body of POST /v1/cluster/steal.
type stealRequest struct {
	// Thief identifies the pulling node; Count bounds how many queued
	// jobs it wants.
	Thief string `json:"thief"`
	Count int    `json:"count"`
}

func (s *Service) handleSteal(w http.ResponseWriter, r *http.Request) {
	var req stealRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Thief == "" || req.Count <= 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "steal needs thief and a positive count"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []StolenJob `json:"jobs"`
	}{Jobs: s.StealQueued(req.Count, req.Thief)})
}

// completeRequest is the body of POST /v1/cluster/complete/{id}: a
// thief's terminal report for a job it stole.
type completeRequest struct {
	State  string  `json:"state"`
	Error  string  `json:"error,omitempty"`
	Result *Report `json:"result,omitempty"`
}

func (s *Service) handleCompleteStolen(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	applied := s.CompleteStolen(r.PathValue("id"), req.State, req.Error, req.Result)
	writeJSON(w, http.StatusOK, struct {
		Applied bool `json:"applied"`
	}{Applied: applied})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

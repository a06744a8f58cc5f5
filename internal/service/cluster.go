package service

import (
	"errors"
	"sort"
	"time"
)

// ClusterView is everything the service needs from cluster mode, kept
// behind an interface so single-node deployments never touch
// internal/cluster: die-key ownership for routing submissions, and the
// membership snapshot for GET /v1/cluster and the cluster-aware healthz.
// internal/cluster provides the implementation; attach it with
// AttachCluster before calling Handler.
type ClusterView interface {
	// Route maps a die key (name, seed) to its owning node under the
	// current live ring: the owner's base URL and whether the owner is
	// this node. Submissions for keys owned elsewhere are 307-redirected
	// so each die is prepared on exactly one node fleet-wide.
	Route(name string, seed int64) (ownerURL string, self bool)
	// Info reports the membership snapshot: per-peer liveness, queue
	// depth and the shard map.
	Info() ClusterInfo
}

// ClusterInfo is the document served at GET /v1/cluster.
type ClusterInfo struct {
	Self string `json:"self"`
	// QueueDepth is how many queued jobs the responding node would hand
	// to a stealing peer — the signal peers use to pick a victim.
	QueueDepth int        `json:"queue_depth"`
	Peers      []PeerInfo `json:"peers"`
	// ShardTokens maps node id -> number of hash-ring tokens it holds
	// (the shard map: ownership is uniform over tokens).
	ShardTokens map[string]int `json:"shard_tokens"`
}

// PeerInfo is one node's liveness row in ClusterInfo.
type PeerInfo struct {
	ID         string `json:"id"`
	URL        string `json:"url"`
	Self       bool   `json:"self,omitempty"`
	Alive      bool   `json:"alive"`
	QueueDepth int    `json:"queue_depth"`
}

// AttachCluster enables cluster mode. Must be called after New and before
// Handler (the cluster endpoints are registered only when a view is
// attached, and the field is read without locking once serving starts).
func (s *Service) AttachCluster(v ClusterView) { s.cluster = v }

// StolenJob is one queued job handed to a stealing peer: the victim-side
// id (which the thief echoes back on completion) and the full request.
type StolenJob struct {
	ID      string     `json:"id"`
	Request JobRequest `json:"request"`
}

// stealable reports whether StealQueued may hand j to a peer: a queued
// single-die job of this node's own. Jobs stolen from another node are
// never re-stolen, and multi-die jobs run where they were submitted.
// Callers hold s.mu.
func stealable(j *job) bool {
	return j.state == StateQueued && !j.remoteOrigin && !j.req.selectsDies()
}

// QueueDepth counts the jobs StealQueued would hand out — the load signal
// exported to peers.
func (s *Service) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if stealable(j) {
			n++
		}
	}
	return n
}

// PoolDepth counts every task waiting in the local pool queue, stolen and
// multi-die jobs included: the thief's "local work first" signal.
func (s *Service) PoolDepth() int { return s.pool.depth() }

// StealQueued hands up to max stealable jobs to the stealing peer `thief`.
// Each handed job is marked running-remotely (so the local pool skips it)
// and journaled as started — if this node crashes before the thief
// reports back, the job replays as orphaned and re-runs.
func (s *Service) StealQueued(max int, thief string) []StolenJob {
	if max <= 0 || thief == "" {
		return nil
	}
	s.mu.Lock()
	var queued []*job
	for _, j := range s.jobs {
		if stealable(j) {
			queued = append(queued, j)
		}
	}
	sort.Slice(queued, func(a, b int) bool { return idLess(queued[a].id, queued[b].id) })
	if len(queued) > max {
		queued = queued[:max]
	}
	out := make([]StolenJob, 0, len(queued))
	now := time.Now()
	for _, j := range queued {
		j.state = StateRunning
		t := now
		j.started = &t
		j.remote = thief
		out = append(out, StolenJob{ID: j.id, Request: j.req})
		s.metrics.JobsStolen.Add(1)
	}
	s.mu.Unlock()
	for _, sj := range out {
		s.journalStart(sj.ID)
	}
	if len(out) > 0 {
		s.logf("wcmd: cluster: peer %s stole %d queued job(s)", thief, len(out))
	}
	return out
}

// CompleteStolen applies a thief's terminal report to a stolen job. The
// first terminal transition wins; a late or duplicate completion (the job
// was reclaimed and re-run, or already finished) is ignored, which is what
// makes completion exactly-once from the client's point of view.
func (s *Service) CompleteStolen(id, state, errMsg string, result *Report) bool {
	switch state {
	case StateDone, StateFailed, StateCanceled:
	default:
		return false
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.finished != nil {
		s.mu.Unlock()
		return false
	}
	var jerr error
	if errMsg != "" {
		jerr = errors.New(errMsg)
	}
	j.remote = ""
	s.finishLocked(j, state, result, jerr)
	s.mu.Unlock()
	s.journalFinish(j)
	s.notifyFinish(j)
	return true
}

// ReclaimStolen re-queues every job currently out with the (now presumed
// dead) peer `thief`. The job's start record is already in the WAL, so a
// crash of this node during the re-run still replays it; if the thief was
// merely partitioned and reports back later, the first terminal transition
// wins and the duplicate is dropped.
func (s *Service) ReclaimStolen(thief string) int {
	s.mu.Lock()
	var feed []*job
	for _, j := range s.jobs {
		if j.state == StateRunning && j.remote == thief {
			j.state = StateQueued
			j.started = nil
			j.remote = ""
			feed = append(feed, j)
			s.metrics.JobsReclaimed.Add(1)
		}
	}
	s.mu.Unlock()
	if len(feed) == 0 {
		return 0
	}
	sort.Slice(feed, func(a, b int) bool { return idLess(feed[a].id, feed[b].id) })
	s.logf("wcmd: cluster: reclaimed %d job(s) from dead peer %s", len(feed), thief)
	go s.feedRecovered(feed)
	return len(feed)
}

// RunStolen executes a job stolen FROM a peer on this node: it runs on the
// normal pool and cache, but is excluded from this node's journal (the
// victim's WAL owns it), from cluster routing, and from re-stealing. done
// fires exactly once with the terminal status so the cluster layer can
// report back to the victim.
func (s *Service) RunStolen(req JobRequest, done func(JobStatus)) (JobStatus, error) {
	j, err := s.resolve(req)
	if err != nil {
		return JobStatus{}, err
	}
	j.remoteOrigin = true
	j.onFinish = done
	return s.enqueue(j)
}

// notifyFinish fires a job's completion callback, at most once. Callers
// must not hold s.mu. Abandoned jobs (cut off by the thief's own drain
// deadline) deliberately stay silent: reporting them canceled would
// finalize the job on the victim, when the right outcome is for the
// victim to notice this node's death and reclaim them for a re-run.
func (s *Service) notifyFinish(j *job) {
	s.mu.Lock()
	cb := j.onFinish
	j.onFinish = nil
	if j.abandoned {
		cb = nil
	}
	s.mu.Unlock()
	if cb != nil {
		cb(s.status(j))
	}
}

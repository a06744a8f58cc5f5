package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"wcm3d/internal/service"
)

// Peer is one static cluster member: a stable node id and the base URL
// its API listens on.
type Peer struct {
	ID  string
	URL string
}

// ParsePeers parses the -peers flag: comma-separated id=url pairs, e.g.
//
//	n1=http://10.0.0.1:8080,n2=http://10.0.0.2:8080,n3=http://10.0.0.3:8080
//
// Ids must be unique and URLs absolute; trailing slashes are stripped.
func ParsePeers(s string) ([]Peer, error) {
	var peers []Peer
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, raw, ok := strings.Cut(part, "=")
		if !ok || id == "" || raw == "" {
			return nil, fmt.Errorf("cluster: bad peer %q, want id=url", part)
		}
		u, err := url.Parse(raw)
		if err != nil || !u.IsAbs() || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %s has invalid url %q", id, raw)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		seen[id] = true
		peers = append(peers, Peer{ID: id, URL: strings.TrimRight(raw, "/")})
	}
	if len(peers) == 0 {
		return nil, errors.New("cluster: no peers in list")
	}
	return peers, nil
}

// Options configures a Cluster. Svc, Self and Peers are required; Self
// must appear in Peers (its URL is what other nodes redirect to).
type Options struct {
	Self  string
	Peers []Peer
	Svc   *service.Service
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
	// ProbeInterval is the liveness/load polling period (default 500ms).
	ProbeInterval time.Duration
	// DeadAfter is how many consecutive failed probes declare a peer dead
	// (default 3). Death triggers ReclaimStolen for jobs it held.
	DeadAfter int
	// StealInterval is the work-stealing polling period; 0 disables
	// stealing (ownership routing still applies).
	StealInterval time.Duration
	// StealBatch bounds how many jobs one steal request pulls (default 2).
	StealBatch int
	// HTTPTimeout bounds every peer call (default 5s).
	HTTPTimeout time.Duration
}

type peerState struct {
	id         string
	url        string
	alive      bool
	failures   int
	queueDepth int
}

// Cluster implements service.ClusterView over a static peer set: it owns
// the background probe and steal loops and the hash ring consulted by
// Route. Create with New, attach with service.AttachCluster, stop with
// Close.
type Cluster struct {
	opts  Options
	ring  *ring
	httpc *http.Client
	stop  chan struct{}
	wg    sync.WaitGroup

	mu    sync.Mutex
	peers map[string]*peerState
}

// New validates opts and starts the probe loop (and, when StealInterval
// > 0, the steal loop). Peers start out presumed alive: a booting fleet
// should route stably from the first request, and a genuinely down peer
// is declared dead after DeadAfter probes anyway.
func New(opts Options) (*Cluster, error) {
	if opts.Svc == nil {
		return nil, errors.New("cluster: Options.Svc is required")
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 500 * time.Millisecond
	}
	if opts.DeadAfter <= 0 {
		opts.DeadAfter = 3
	}
	if opts.StealBatch <= 0 {
		opts.StealBatch = 2
	}
	if opts.HTTPTimeout <= 0 {
		opts.HTTPTimeout = 5 * time.Second
	}
	c := &Cluster{
		opts:  opts,
		httpc: &http.Client{Timeout: opts.HTTPTimeout},
		stop:  make(chan struct{}),
		peers: make(map[string]*peerState),
	}
	ids := make([]string, 0, len(opts.Peers))
	for _, p := range opts.Peers {
		ids = append(ids, p.ID)
		c.peers[p.ID] = &peerState{id: p.ID, url: p.URL, alive: true}
	}
	if _, ok := c.peers[opts.Self]; !ok {
		return nil, fmt.Errorf("cluster: self id %q not in peer list", opts.Self)
	}
	c.ring = newRing(ids, ringVNodes)
	if len(ids) > 1 {
		c.wg.Add(1)
		go c.probeLoop()
		if opts.StealInterval > 0 {
			c.wg.Add(1)
			go c.stealLoop()
		}
	}
	return c, nil
}

// Close stops the background loops and waits for them to exit. In-flight
// stolen jobs keep running on the service pool; their completion reports
// are attempted once without retry after Close.
func (c *Cluster) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.wg.Wait()
}

func (c *Cluster) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// dieKey is the ring key for a prepared die: the same (name, seed) pair
// the service's die cache is keyed on, so ownership and caching agree.
func dieKey(name string, seed int64) string {
	return name + "|" + strconv.FormatInt(seed, 10)
}

// Route implements service.ClusterView: the node owning (name, seed)
// under the current liveness view, with self always considered alive.
func (c *Cluster) Route(name string, seed int64) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	owner := c.ring.lookup(dieKey(name, seed), func(id string) bool {
		if id == c.opts.Self {
			return true
		}
		p := c.peers[id]
		return p != nil && p.alive
	})
	return c.peers[owner].url, owner == c.opts.Self
}

// Info implements service.ClusterView: the membership snapshot served at
// GET /v1/cluster, rows sorted by peer id.
func (c *Cluster) Info() service.ClusterInfo {
	depth := c.opts.Svc.QueueDepth()
	c.mu.Lock()
	defer c.mu.Unlock()
	info := service.ClusterInfo{
		Self:        c.opts.Self,
		QueueDepth:  depth,
		ShardTokens: c.ring.tokensPerNode(),
	}
	for _, p := range c.opts.Peers {
		st := c.peers[p.ID]
		row := service.PeerInfo{ID: st.id, URL: st.url, Alive: st.alive, QueueDepth: st.queueDepth}
		if st.id == c.opts.Self {
			row.Self, row.Alive, row.QueueDepth = true, true, depth
		}
		info.Peers = append(info.Peers, row)
	}
	return info
}

// probeLoop polls every remote peer's GET /v1/cluster on a ticker,
// tracking liveness and queue depth. A peer crossing the DeadAfter
// threshold is declared dead: its hash-ring shards fail over (Route skips
// dead nodes) and any queued jobs it stole from this node are reclaimed.
func (c *Cluster) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		for _, p := range c.remotes() {
			info, err := c.fetchInfo(p.url)
			c.mu.Lock()
			st := c.peers[p.id]
			if err != nil {
				st.failures++
				if st.alive && st.failures >= c.opts.DeadAfter {
					st.alive = false
					c.mu.Unlock()
					c.logf("wcmd: cluster: peer %s dead after %d failed probes: %v", p.id, c.opts.DeadAfter, err)
					c.opts.Svc.ReclaimStolen(p.id)
					continue
				}
				c.mu.Unlock()
				continue
			}
			if !st.alive {
				c.logf("wcmd: cluster: peer %s is back", p.id)
			}
			st.alive, st.failures, st.queueDepth = true, 0, info.QueueDepth
			c.mu.Unlock()
		}
	}
}

// remotes snapshots every peer but self.
func (c *Cluster) remotes() []*peerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*peerState, 0, len(c.peers)-1)
	for _, p := range c.opts.Peers {
		if p.ID != c.opts.Self {
			out = append(out, c.peers[p.ID])
		}
	}
	return out
}

func (c *Cluster) fetchInfo(baseURL string) (service.ClusterInfo, error) {
	var info service.ClusterInfo
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.HTTPTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/cluster", nil)
	if err != nil {
		return info, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("GET /v1/cluster: %s", resp.Status)
	}
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// stealLoop pulls queued work from the most loaded live peer whenever
// this node is idle. Stealing deliberately trades die-cache locality for
// tail latency: a stolen job may prepare a die outside its owner shard,
// which is why it only triggers when the local queue is empty.
func (c *Cluster) stealLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.StealInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		if c.opts.Svc.PoolDepth() > 0 {
			continue // local work first, stolen jobs included
		}
		victim := c.pickVictim()
		if victim == nil {
			continue
		}
		c.stealFrom(victim)
	}
}

// pickVictim chooses the live remote peer with the deepest last-probed
// queue, nil when nobody has queued work to give.
func (c *Cluster) pickVictim() *peerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *peerState
	for _, p := range c.opts.Peers {
		st := c.peers[p.ID]
		if st.id == c.opts.Self || !st.alive || st.queueDepth <= 0 {
			continue
		}
		if best == nil || st.queueDepth > best.queueDepth {
			best = st
		}
	}
	return best
}

// stealFrom pulls up to StealBatch jobs from victim and runs each on the
// local pool, reporting terminal results back via the completion
// endpoint. The victim journals the handout, so either side dying still
// re-runs the job somewhere.
func (c *Cluster) stealFrom(victim *peerState) {
	body, _ := json.Marshal(struct {
		Thief string `json:"thief"`
		Count int    `json:"count"`
	}{Thief: c.opts.Self, Count: c.opts.StealBatch})
	var out struct {
		Jobs []service.StolenJob `json:"jobs"`
	}
	if err := c.postJSON(victim.url+"/v1/cluster/steal", body, &out); err != nil {
		c.logf("wcmd: cluster: steal from %s failed: %v", victim.id, err)
		return
	}
	c.mu.Lock()
	victim.queueDepth -= len(out.Jobs)
	c.mu.Unlock()
	for _, sj := range out.Jobs {
		sj := sj
		vurl := victim.url
		done := func(st service.JobStatus) {
			c.reportCompletion(vurl, sj.ID, st)
		}
		if err := c.runStolen(sj.Request, done); err != nil {
			// Could not place the job locally (e.g. shutdown raced the
			// steal). The victim journaled the handout, so its next boot —
			// or our death being detected — re-runs it; nothing is lost,
			// but say so loudly because until then the job is parked.
			c.logf("wcmd: cluster: stolen job %s from %s not runnable locally: %v", sj.ID, victim.id, err)
		}
	}
	if n := len(out.Jobs); n > 0 {
		c.logf("wcmd: cluster: stole %d job(s) from %s", n, victim.id)
	}
}

// runStolen places one stolen job on the local pool, retrying brief
// queue-full rejections (we only steal when idle, so capacity normally
// exists; a race with local submissions resolves in a few ticks).
func (c *Cluster) runStolen(req service.JobRequest, done func(service.JobStatus)) error {
	var err error
	for i := 0; i < 50; i++ {
		if _, err = c.opts.Svc.RunStolen(req, done); err == nil || !errors.Is(err, service.ErrQueueFull) {
			return err
		}
		select {
		case <-c.stop:
			return err
		case <-time.After(100 * time.Millisecond):
		}
	}
	return err
}

// reportCompletion posts a stolen job's terminal result back to its
// victim, retrying transient failures with backoff. A report that never
// lands is safe — the victim reclaims the job when it declares this node
// dead, and first-terminal-wins drops whichever copy loses the race.
func (c *Cluster) reportCompletion(victimURL, id string, st service.JobStatus) {
	body, _ := json.Marshal(struct {
		State  string          `json:"state"`
		Error  string          `json:"error,omitempty"`
		Result *service.Report `json:"result,omitempty"`
	}{State: st.State, Error: st.Error, Result: st.Result})
	var out struct {
		Applied bool `json:"applied"`
	}
	backoff := 200 * time.Millisecond
	for attempt := 0; ; attempt++ {
		err := c.postJSON(victimURL+"/v1/cluster/complete/"+id, body, &out)
		if err == nil {
			if !out.Applied {
				c.logf("wcmd: cluster: completion for %s not applied (already terminal on victim)", id)
			}
			return
		}
		closing := false
		select {
		case <-c.stop:
			closing = true
		default:
		}
		if attempt >= 4 || closing {
			c.logf("wcmd: cluster: completion for %s undeliverable, victim will reclaim: %v", id, err)
			return
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

func (c *Cluster) postJSON(url string, body []byte, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.HTTPTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

var _ service.ClusterView = (*Cluster)(nil)

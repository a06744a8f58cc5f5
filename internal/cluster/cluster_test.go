package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"wcm3d"
	"wcm3d/internal/service"
)

// One small real die shared by every test node's Prepare hook: the tests
// exercise routing, stealing and liveness, not die generation.
var (
	dieOnce sync.Once
	dieVal  *wcm3d.Die
	dieErr  error
)

func testDie(t *testing.T) *wcm3d.Die {
	t.Helper()
	dieOnce.Do(func() {
		var p wcm3d.Profile
		p, dieErr = wcm3d.ProfileByName("b11/0")
		if dieErr == nil {
			dieVal, dieErr = wcm3d.PrepareDie(p, 1)
		}
	})
	if dieErr != nil {
		t.Fatal(dieErr)
	}
	return dieVal
}

type node struct {
	id  string
	url string
	svc *service.Service
	cl  *Cluster
	srv *http.Server
}

// kill tears one node down hard (listener gone, loops stopped) without
// touching the others — the "peer died" scenario.
func (n *node) kill() {
	n.srv.Close()
	n.cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	n.svc.Shutdown(ctx)
}

// startNodes boots an in-process loopback cluster of count nodes. mkCfg
// builds each node's service config (the cluster fields are wired here);
// tweak adjusts the cluster options per node before New.
func startNodes(t *testing.T, count int, mkCfg func(i int) service.Config, tweak func(o *Options)) []*node {
	t.Helper()
	nodes := make([]*node, count)
	peers := make([]Peer, count)
	listeners := make([]net.Listener, count)
	for i := range nodes {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("n%d", i+1)
		url := "http://" + lis.Addr().String()
		peers[i] = Peer{ID: id, URL: url}
		nodes[i] = &node{id: id, url: url}
		listeners[i] = lis
	}
	for i, n := range nodes {
		n.svc = service.New(mkCfg(i))
		opts := Options{
			Self:          n.id,
			Peers:         peers,
			Svc:           n.svc,
			ProbeInterval: 50 * time.Millisecond,
			DeadAfter:     3,
			HTTPTimeout:   2 * time.Second,
		}
		if tweak != nil {
			tweak(&opts)
		}
		cl, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		n.cl = cl
		n.svc.AttachCluster(cl)
		// Serve only once the handler exists: peers probe from New on,
		// and their connections wait in the listener's backlog until then.
		n.srv = &http.Server{Handler: n.svc.Handler()}
		go n.srv.Serve(listeners[i])
		t.Cleanup(n.kill)
	}
	return nodes
}

// submitFollowing posts a job and follows any ownership redirect,
// returning the accepted status and the node URL that took the job.
func submitFollowing(t *testing.T, startURL, body string) (service.JobStatus, string) {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(startURL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d err %v", resp.StatusCode, err)
	}
	return st, "http://" + resp.Request.URL.Host
}

func waitTerminal(t *testing.T, nodeURL, id string) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	client := &http.Client{Timeout: 5 * time.Second}
	for time.Now().Before(deadline) {
		resp, err := client.Get(nodeURL + "/v1/jobs/" + id)
		if err == nil {
			var st service.JobStatus
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			switch st.State {
			case service.StateDone, service.StateFailed, service.StateCanceled:
				return st
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s on %s never finished", id, nodeURL)
	return service.JobStatus{}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("n1=http://10.0.0.1:8080/, n2=http://10.0.0.2:8080")
	if err != nil || len(peers) != 2 || peers[0].URL != "http://10.0.0.1:8080" {
		t.Fatalf("ParsePeers: %+v, %v", peers, err)
	}
	for _, bad := range []string{"", "n1", "n1=", "=x", "n1=not a url", "n1=u1,n1=u2", "n1=/relative"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Fatalf("ParsePeers(%q) accepted", bad)
		}
	}
}

// TestClusterOwnership: with stealing off, every distinct die key is
// prepared on exactly one node — its ring owner — no matter where the
// submission first landed.
func TestClusterOwnership(t *testing.T) {
	die := testDie(t)
	nodes := startNodes(t, 3, func(i int) service.Config {
		return service.Config{
			Workers: 2, QueueDepth: 32,
			Prepare: func(ctx context.Context, spec service.DieSpec) (*wcm3d.Die, error) {
				return die, nil
			},
		}
	}, nil) // StealInterval 0: ownership only

	const seeds = 12
	type placed struct {
		id, url string
	}
	var jobs []placed
	for s := 1; s <= seeds; s++ {
		// Spray submissions across entry nodes; redirects concentrate them
		// on the owners.
		entry := nodes[s%3].url
		st, owner := submitFollowing(t, entry, fmt.Sprintf(`{"profile":"b11/0","seed":%d}`, s))
		jobs = append(jobs, placed{st.ID, owner})
	}
	for _, p := range jobs {
		if st := waitTerminal(t, p.url, p.id); st.State != service.StateDone {
			t.Fatalf("job %s on %s: %q", p.id, p.url, st.State)
		}
	}

	var totalMisses int64
	for _, n := range nodes {
		m := n.svc.Metrics().CacheMisses.Load()
		totalMisses += m
		// Every preparation on a node must be for a key it owns: the job
		// count equals the miss count (each owned key submitted once).
		if got := int64(len(n.svc.Jobs())); got != m {
			t.Fatalf("node %s ran %d jobs but prepared %d dies — ran a non-owned key", n.id, got, m)
		}
	}
	if totalMisses != seeds {
		t.Fatalf("fleet prepared %d dies for %d distinct keys — ownership violated", totalMisses, seeds)
	}
	// The routing view agrees across nodes: each key has one owner.
	for s := 1; s <= seeds; s++ {
		owners := make(map[string]bool)
		for _, n := range nodes {
			url, _ := n.cl.Route("b11/0", int64(s))
			owners[url] = true
		}
		if len(owners) != 1 {
			t.Fatalf("seed %d: nodes disagree on owner: %v", s, owners)
		}
	}
}

// TestClusterStealing: an overloaded node's queue drains through idle
// peers, and every stolen job still reaches done exactly once on the
// victim's table.
func TestClusterStealing(t *testing.T) {
	die := testDie(t)
	nodes := startNodes(t, 3, func(i int) service.Config {
		cfg := service.Config{
			Workers: 2, QueueDepth: 64,
			Prepare: func(ctx context.Context, spec service.DieSpec) (*wcm3d.Die, error) {
				time.Sleep(30 * time.Millisecond) // make jobs slow enough to steal
				return die, nil
			},
		}
		if i == 0 {
			cfg.Workers = 1 // the victim: one slow worker, deep queue
		}
		return cfg
	}, func(o *Options) {
		o.StealInterval = 25 * time.Millisecond
		o.StealBatch = 2
	})

	victim := nodes[0]
	const jobs = 12
	var ids []string
	for s := 1; s <= jobs; s++ {
		// Submit directly to the victim's service: routing is beside the
		// point here, queue pressure is.
		st, err := victim.svc.Submit(service.JobRequest{Profile: "b11/0", Seed: int64(s)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st := waitTerminal(t, victim.url, id); st.State != service.StateDone {
			t.Fatalf("job %s: %q", id, st.State)
		}
	}
	if stolen := victim.svc.Metrics().JobsStolen.Load(); stolen == 0 {
		t.Fatal("no jobs were stolen from the loaded node")
	}
	// Exactly once: done count on the victim covers every job, no extras.
	if done := victim.svc.Metrics().JobsDone.Load(); done != jobs {
		t.Fatalf("victim JobsDone = %d, want %d", done, jobs)
	}
}

// TestClusterDeadThiefReclaim: jobs stolen by a peer that dies before
// reporting back are reclaimed and finish locally.
func TestClusterDeadThiefReclaim(t *testing.T) {
	die := testDie(t)
	release := make(chan struct{})
	var once sync.Once
	nodes := startNodes(t, 2, func(i int) service.Config {
		cfg := service.Config{Workers: 1, QueueDepth: 32}
		if i == 0 {
			// Victim: worker wedges until released, so submissions pile up
			// in the queue where the thief can take them.
			cfg.Prepare = func(ctx context.Context, spec service.DieSpec) (*wcm3d.Die, error) {
				select {
				case <-release:
					return die, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		} else {
			// Thief: accepts stolen jobs but never finishes them.
			cfg.Prepare = func(ctx context.Context, spec service.DieSpec) (*wcm3d.Die, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			}
		}
		return cfg
	}, func(o *Options) {
		o.StealInterval = 25 * time.Millisecond
		o.StealBatch = 4
	})
	defer once.Do(func() { close(release) })

	victim, thief := nodes[0], nodes[1]
	var ids []string
	for s := 1; s <= 5; s++ {
		st, err := victim.svc.Submit(service.JobRequest{Profile: "b11/0", Seed: int64(s)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	// Wait until the thief has taken something.
	deadline := time.Now().Add(10 * time.Second)
	for victim.svc.Metrics().JobsStolen.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("thief never stole")
		}
		time.Sleep(10 * time.Millisecond)
	}
	thief.kill()

	// The victim declares the thief dead and reclaims; release the worker
	// so the backlog (reclaimed jobs included) drains locally.
	deadline = time.Now().Add(10 * time.Second)
	for victim.svc.Metrics().JobsReclaimed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim never reclaimed from the dead thief")
		}
		time.Sleep(10 * time.Millisecond)
	}
	once.Do(func() { close(release) })
	for _, id := range ids {
		if st := waitTerminal(t, victim.url, id); st.State != service.StateDone {
			t.Fatalf("job %s: %q", id, st.State)
		}
	}
}

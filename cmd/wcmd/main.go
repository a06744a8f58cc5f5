// Command wcmd is the WCM-as-a-service daemon: it serves wrapper-cell
// minimization over HTTP/JSON, amortizing expensive die preparation across
// requests with an LRU cache and running jobs on a bounded worker pool
// with backpressure.
//
// Usage:
//
//	wcmd -addr :8080 -workers 8 -queue 64 -cache 16
//	wcmd -pprof-addr localhost:6060   # expose net/http/pprof on a side listener
//	wcmd -wal-dir /var/lib/wcmd/wal   # durable job log + crash recovery
//	wcmd -node-id n1 -peers n1=http://h1:8080,n2=http://h2:8080 \
//	     -wal-dir /var/lib/wcmd/wal   # clustered: sharded die cache + stealing
//
// Quick start:
//
//	curl -s -X POST localhost:8080/v1/jobs \
//	    -d '{"profile":"b12/1","method":"ours","timing":"tight"}'
//	curl -s localhost:8080/v1/jobs/j-000001
//	curl -s localhost:8080/metrics
//
// See docs/SERVICE.md for the full API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wcm3d/internal/cluster"
	"wcm3d/internal/service"
	"wcm3d/internal/wal"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 64, "job queue depth (full queue returns 429)")
		cache   = flag.Int("cache", 16, "prepared-die LRU cache capacity")
		drain   = flag.Duration("drain", 30*time.Second, "shutdown drain deadline")

		retention   = flag.Duration("retention", time.Hour, "how long a finished job stays queryable")
		maxFinished = flag.Int("max-finished", 1024, "finished jobs retained beyond the TTL sweep")
		gcInterval  = flag.Duration("gc-interval", time.Minute, "retention sweep period")
		maxTimeout  = flag.Duration("max-timeout", 10*time.Minute, "server-side cap on per-job/per-schedule timeout_ms")

		walDir = flag.String("wal-dir", "", "write-ahead job log directory; empty disables durability")

		nodeID        = flag.String("node-id", "", "this node's id in -peers (required with -peers)")
		peers         = flag.String("peers", "", "static cluster membership as id=url,id=url,...; empty runs single-node")
		stealInterval = flag.Duration("steal-interval", time.Second, "work-stealing poll period when clustered (0 disables stealing)")

		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")

		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "deadline for reading request headers (slowloris guard)")
		readTimeout       = flag.Duration("read-timeout", 30*time.Second, "deadline for reading a whole request")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection deadline")
	)
	flag.Parse()
	cfg := service.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheCapacity: *cache,
		RetentionTTL:  *retention,
		MaxFinished:   *maxFinished,
		GCInterval:    *gcInterval,
		MaxTimeout:    *maxTimeout,
	}
	if err := runNode(nodeOptions{
		addr:      *addr,
		pprofAddr: *pprofAddr,
		cfg:       cfg,
		drain:     *drain,
		to: timeouts{
			readHeader: *readHeaderTimeout,
			read:       *readTimeout,
			idle:       *idleTimeout,
		},
		walDir:        *walDir,
		nodeID:        *nodeID,
		peers:         *peers,
		stealInterval: *stealInterval,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "wcmd:", err)
		os.Exit(1)
	}
}

// timeouts bounds how long a client may hold a connection without making
// progress. Go's zero-value http.Server waits forever on all three, so a
// handful of slow-header connections could pin the daemon's file
// descriptors indefinitely (slowloris); these defaults cap that. No write
// timeout: a schedule's response waits for its whole run, and a fixed
// write deadline would kill legitimately long responses.
type timeouts struct {
	readHeader time.Duration
	read       time.Duration
	idle       time.Duration
}

// run starts a plain single-node daemon (no WAL, no cluster) — the
// pre-durability behavior, kept as the simple entry point for tests.
func run(addr, pprofAddr string, cfg service.Config, drain time.Duration, to timeouts) error {
	return runNode(nodeOptions{addr: addr, pprofAddr: pprofAddr, cfg: cfg, drain: drain, to: to})
}

// nodeOptions is everything runNode needs to boot one daemon: the core
// service config plus the durability (walDir) and clustering (nodeID,
// peers, stealInterval) settings, each independently optional.
type nodeOptions struct {
	addr, pprofAddr string
	cfg             service.Config
	drain           time.Duration
	to              timeouts
	walDir          string
	nodeID          string
	peers           string
	stealInterval   time.Duration
}

func runNode(o nodeOptions) error {
	// Durability first: the WAL replays before any traffic is accepted, so
	// recovered jobs get their original ids back before new submissions
	// can claim them.
	var jl *wal.Log
	var rec service.Recovery
	if o.walDir != "" {
		var err error
		jl, rec, err = wal.Open(o.walDir, wal.Options{Retention: o.cfg.RetentionTTL})
		if err != nil {
			return fmt.Errorf("open wal %s: %w", o.walDir, err)
		}
		defer jl.Close()
		o.cfg.Journal = jl
		if rec.Corrupted > 0 {
			log.Printf("wcmd: wal: %d segment(s) had a torn or corrupt tail; damaged records discarded", rec.Corrupted)
		}
	}
	o.cfg.Logf = log.Printf
	svc := service.New(o.cfg)
	if o.walDir != "" {
		requeued, restored, err := svc.Recover(rec)
		if err != nil {
			return fmt.Errorf("wal recovery: %w", err)
		}
		if requeued+restored > 0 {
			log.Printf("wcmd: wal: recovered %d job(s): %d re-queued for execution, %d restored finished", requeued+restored, requeued, restored)
		}
	}

	// Clustering second: attach before Handler so the cluster routes exist.
	var cl *cluster.Cluster
	if o.peers != "" {
		if o.nodeID == "" {
			return errors.New("-peers requires -node-id")
		}
		ps, err := cluster.ParsePeers(o.peers)
		if err != nil {
			return err
		}
		cl, err = cluster.New(cluster.Options{
			Self:          o.nodeID,
			Peers:         ps,
			Svc:           svc,
			Logf:          log.Printf,
			StealInterval: o.stealInterval,
		})
		if err != nil {
			return err
		}
		defer cl.Close()
		svc.AttachCluster(cl)
		log.Printf("wcmd: cluster: node %s of %d peers (stealing %s)", o.nodeID, len(ps),
			map[bool]string{true: "on, every " + o.stealInterval.String(), false: "off"}[o.stealInterval > 0])
	}

	pprofSrv, err := startPprof(o.pprofAddr, o.to)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Addr:              o.addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: o.to.readHeader,
		ReadTimeout:       o.to.read,
		IdleTimeout:       o.to.idle,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("wcmd: listening on %s", o.addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	return serve(svc, srv, pprofSrv, errc, sig, o.drain)
}

// startPprof binds the profiling side listener up front — so a bad
// -pprof-addr is a startup error, not a log line — and returns the server
// so shutdown can close it. Profiling endpoints live on their own
// listener, typically bound to localhost, so they are never reachable
// through the service address; the handlers are registered on a private
// mux rather than relying on net/http/pprof's DefaultServeMux side effect.
func startPprof(addr string, to timeouts) (*http.Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux, ReadHeaderTimeout: to.readHeader}
	go func() {
		log.Printf("wcmd: pprof listening on %s", ln.Addr())
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("wcmd: pprof listener: %v", err)
		}
	}()
	return srv, nil
}

// serve blocks until a fatal listener error or the shutdown signal
// sequence: the first signal starts a graceful drain under the deadline,
// and a second signal during the drain forces immediate shutdown by
// cancelling the drain context — the abandoned jobs are logged on the way
// down.
func serve(svc *service.Service, srv, pprofSrv *http.Server, errc <-chan error, sig <-chan os.Signal, drain time.Duration) error {
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		log.Printf("wcmd: %v — draining (deadline %s; signal again to force shutdown)", s, drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	type drained struct {
		rep service.DrainReport
		err error
	}
	done := make(chan drained, 1)
	go func() {
		rep, err := svc.Shutdown(ctx)
		done <- drained{rep, err}
	}()
	var d drained
	select {
	case d = <-done:
	case s := <-sig:
		log.Printf("wcmd: second %v — forcing immediate shutdown", s)
		cancel()
		d = <-done
	}
	log.Printf("wcmd: drained: %d done, %d failed, %d canceled", d.rep.Done, d.rep.Failed, d.rep.Canceled)
	if d.err != nil {
		log.Printf("wcmd: drain cut short (%v): %d job(s) abandoned", d.err, len(d.rep.Abandoned))
	}
	// Name every job the drain cut off. With -wal-dir set these are not
	// lost: their terminal transition was deliberately withheld from the
	// journal, so the next boot replays them as pending.
	for _, id := range d.rep.Abandoned {
		log.Printf("wcmd: abandoned job %s (recoverable from the WAL on next boot)", id)
	}
	if pprofSrv != nil {
		_ = pprofSrv.Close()
	}
	return srv.Shutdown(context.Background())
}

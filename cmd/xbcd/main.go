// Command xbcd is the simulation daemon: a long-running HTTP/JSON server
// that accepts simulation jobs, coalesces identical specs, executes each
// once on a sharded worker pool with panic isolation and a per-job
// deadline, caches results content-addressed, and exposes Prometheus
// metrics.
//
// Usage:
//
//	xbcd                                # serve on :8321
//	xbcd -addr 127.0.0.1:0 -addr-file /tmp/xbcd.addr
//	xbcd -shards 8 -workers 2 -timeout 2m
//	xbcd -store /var/lib/xbcd -store-fsync always -store-max-bytes 1073741824
//	xbcd -addr :8321 -cluster-addr http://10.0.0.1:8321 \
//	     -peers http://10.0.0.2:8321,http://10.0.0.3:8321
//
// API (see internal/service):
//
//	POST /v1/jobs             submit a job spec; returns id + status
//	GET  /v1/jobs/{id}        status, metrics, IPC estimate
//	GET  /v1/jobs/{id}/events JSON-lines lifecycle stream
//	POST /v1/sweeps           fan a frontend x workload x budget grid out
//	GET  /healthz             ok / draining
//	GET  /metrics             Prometheus text format
//
// SIGINT/SIGTERM drains gracefully: intake stops (503), queued jobs are
// aborted ("drained"; a job ID is its spec's content key, so resubmitting
// is idempotent), in-flight jobs finish, the store's write-behind queue
// flushes, then the listener shuts down.
//
// With -store, completed results and generated trace corpora persist
// across restarts: a restarted daemon serves previously computed jobs as
// cache hits without re-simulating (see internal/store). If the store
// cannot be opened the daemon logs the reason, runs memory-only, and
// reports "unavailable" under the store key of /healthz.
//
// With -peers, the daemon joins a consistent-hash cluster (see
// internal/cluster): job content keys place every spec on exactly one
// owning node, non-owners transparently proxy, sweeps scatter their
// unique cells across the ring, and an unreachable owner degrades to
// local execution — counted in xbcd_cluster_fallbacks_total, never an
// error. Without -peers the serving path is byte-for-byte the
// single-node daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xbc/internal/cluster"
	"xbc/internal/service"
	"xbc/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xbcd: ")
	var (
		addr     = flag.String("addr", ":8321", "listen address (host:port; port 0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		shards   = flag.Int("shards", 4, "queue shards (jobs are routed by content-key hash)")
		workers  = flag.Int("workers", 1, "worker goroutines per shard")
		queue    = flag.Int("queue", 64, "queued-job bound per shard")
		cache    = flag.Int("cache", 256, "completed jobs retained by the result cache")
		timeout  = flag.Duration("timeout", 5*time.Minute, "per-job execution deadline (0 = unbounded)")
		maxUops  = flag.Uint64("maxuops", 50_000_000, "largest stream length a job may request")
		storeDir = flag.String("store", "", "directory of the persistent result/corpus store (empty = memory-only)")
		storeFs  = flag.String("store-fsync", "interval", "store durability: always, interval, or never")
		storeMax = flag.Int64("store-max-bytes", 0, "compact the store segment past this size, evicting oldest records (0 = unbounded)")
		snapshot = flag.Int("snapshot-cache", 64, "warm-state snapshots kept in memory for full-fidelity warmup skipping (negative disables snapshots)")
		upgrade  = flag.Bool("upgrade-sampled", false, "resubmit a full-fidelity job in the background after serving a sampled or estimate result")
		peers    = flag.String("peers", "", "comma-separated peer base URLs; non-empty enables cluster mode")
		clAddr   = flag.String("cluster-addr", "", "this node's advertised base URL, as peers reach it (default http://<bound addr>)")
		vnodes   = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per cluster member on the placement ring")
		peerPoll = flag.Duration("peer-poll", time.Second, "peer health polling interval in cluster mode")
	)
	flag.Parse()

	opts := service.Options{
		Shards:          *shards,
		WorkersPerShard: *workers,
		QueueDepth:      *queue,
		CacheJobs:       *cache,
		JobTimeout:      *timeout,
		MaxUops:         *maxUops,
		SnapshotEntries: *snapshot,
		UpgradeSampled:  *upgrade,
		//xbc:ignore nondeterm the daemon binds the real clock; everything below main injects it
		Clock: time.Now,
	}
	if *storeDir != "" {
		mode, err := store.ParseFsyncMode(*storeFs)
		if err != nil {
			log.Fatal(err)
		}
		st, err := store.Open(store.Options{Dir: *storeDir, Fsync: mode, MaxBytes: *storeMax})
		if err != nil {
			// A broken disk must not keep the daemon down: serve memory-only
			// and surface the reason on /healthz.
			log.Printf("store %s unavailable, running memory-only: %v", *storeDir, err)
			opts.StoreErr = err.Error()
		} else {
			stats := st.Stats()
			log.Printf("store %s: %d records (%d quarantined)",
				*storeDir, stats.Records, stats.Quarantined+stats.QuarantinedFiles)
			opts.Store = st
			defer func() {
				if err := st.Close(); err != nil {
					log.Printf("store close: %v", err)
				}
			}()
		}
	}
	srv := service.New(opts)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("listening on %s", bound)

	handler := srv.Handler()
	var cl *cluster.Cluster
	if *peers != "" {
		self := *clAddr
		if self == "" {
			self = "http://" + bound
		}
		cl = cluster.New(cluster.Options{
			Self:         self,
			Peers:        strings.Split(*peers, ","),
			VNodes:       *vnodes,
			PollInterval: *peerPoll,
		})
		handler = cl.Handler(handler)
		cl.Start()
		defer cl.Stop()
		log.Printf("cluster: self %s, ring of %d nodes, %d vnodes each",
			cl.Self(), len(cl.Ring().Nodes()), cl.Ring().VNodes())
	}

	httpSrv := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: the listener keeps serving (healthz reports
	// draining, submissions get 503) while queued jobs are rejected and
	// in-flight jobs run to completion; only then does the listener stop.
	log.Print("draining: rejecting new jobs, finishing in-flight")
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	log.Print("drained; bye")
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"xbc/internal/cluster"
	"xbc/internal/service"
	"xbc/internal/store"
)

// node is one in-process xbcd: a store, a service.Server and a loopback
// HTTP listener, wrapped in the cluster ownership gate when it has peers.
// cmd/xbcd is a main package and cannot be imported, so this mirrors what
// it wires up, with its flag defaults.
type node struct {
	name string // base URL, http://node-<i>; the ring hashes it
	dir  string
	st   *store.Store
	svc  *service.Server
	cl   *cluster.Cluster
	fwd  *http.Transport // the cluster's forwarding transport
	srv  *http.Server
	// serving is done once Serve has returned, with serveErr.
	serving  sync.WaitGroup
	serveErr error
}

// openStore opens a store with xbcd's -store-fsync default.
func openStore(dir string) (*store.Store, error) {
	return store.Open(store.Options{Dir: dir, Fsync: store.FsyncInterval})
}

// startNodes starts one node per store directory. Several nodes join one
// ring through cluster.Handler, as in the cluster test suite, without
// health polling: no node goes down during a run. snapshots is the
// service's SnapshotEntries (0 keeps xbcd's default of 64).
func (b *bench) startNodes(dirs []string, snapshots int) error {
	if b.tr != nil {
		b.lc = newLayerClock(snapshots >= 0)
	}
	lns := make([]net.Listener, len(dirs))
	names := make([]string, len(dirs))
	for i := range dirs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		lns[i] = ln
		host := fmt.Sprintf("node-%d", i)
		names[i] = "http://" + host
		b.book.set(host, ln.Addr().String())
	}
	for i, dir := range dirs {
		st, err := openStore(dir)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return fmt.Errorf("opening store %s: %w", dir, err)
		}
		opts := service.Options{
			JobTimeout:      5 * time.Minute,
			SnapshotEntries: snapshots,
			Clock:           time.Now,
			Store:           st,
		}
		if b.tr != nil {
			opts.Exec = b.tr.exec
		}
		n := &node{name: names[i], dir: dir, st: st, svc: service.New(opts)}
		h := b.tr.wrap("handler", n.name, n.svc.Handler())
		if len(dirs) > 1 {
			var peers []string
			for j, p := range names {
				if j != i {
					peers = append(peers, p)
				}
			}
			n.fwd = b.book.transport()
			n.cl = cluster.New(cluster.Options{Self: n.name, Peers: peers, Client: &http.Client{Transport: n.fwd}})
			h = b.tr.wrap("edge", n.name, n.cl.Handler(h))
		}
		n.srv = &http.Server{Handler: h}
		ln := lns[i]
		n.serving.Add(1)
		go func() {
			defer n.serving.Done()
			n.serveErr = n.srv.Serve(ln)
		}()
		b.nodes = append(b.nodes, n)
	}
	return nil
}

// stopNodes drains every node the way xbcd does on SIGTERM, stops its
// listener and closes its store.
func (b *bench) stopNodes() error {
	var errs []error
	for _, n := range b.nodes {
		n.svc.Drain()
	}
	for _, n := range b.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := n.srv.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		cancel()
		n.serving.Wait()
		if !errors.Is(n.serveErr, http.ErrServerClosed) {
			errs = append(errs, n.serveErr)
		}
		if n.cl != nil {
			n.cl.Stop()
			n.fwd.CloseIdleConnections()
		}
		if err := n.st.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	b.nodes = nil
	b.c.tr.CloseIdleConnections()
	return errors.Join(errs...)
}

// awaitStored blocks until the store holds the result of job, which
// means write-behind has flushed everything queued before it: the
// service's single flusher writes in queue order, and a job's trace and
// snapshot are queued before its result. "r:" is the service's result
// key namespace.
func awaitStored(st *store.Store, job string) error {
	deadline := time.Now().Add(60 * time.Second)
	for !st.Has("r:" + job) {
		if time.Now().After(deadline) {
			return fmt.Errorf("result %s never reached the store", job)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// scrape sums every node's /metrics.
func (b *bench) scrape() (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, n := range b.nodes {
		m, err := b.c.scrape(n.name)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/rtnet/wrtring/internal/cluster"
	"github.com/rtnet/wrtring/internal/serve"
	"github.com/rtnet/wrtring/internal/store"
)

// node is one serve.Server behind an httptest listener on loopback, with
// its own durable store.
type node struct {
	id    string
	srv   *serve.Server
	ts    *httptest.Server
	store *store.Store
}

// fleet is the whole service stack of one set-up: a coordinator in front of
// two workers, and one standalone server. Every workload boots all of it,
// so the background work of every daemon (health probes, rebalance sweeps)
// runs under every workload.
type fleet struct {
	workers     []*node
	solo        *node
	coord       *cluster.Coordinator
	coordTS     *httptest.Server
	transport   *http.Transport
	coordClient *serve.Client
	soloClient  *serve.Client
	// batches lists the batch IDs created on the coordinator, for the
	// per-batch conservation check after the drain.
	batches []string
}

// fleetConfig is the shape of the stack. The coordinator keeps the defaults
// cmd/wrtcoord ships; each daemon runs one simulation worker; stores skip
// fsync so that the page-cache path, not the host's disk, is measured.
type fleetConfig struct {
	dir       string
	soloDir   string // standalone server's store ("": dir/solo)
	soloCache int    // standalone server's RAM cache entries
	tracer    *tracer
	logf      func(string, ...any)
}

// maxClients bounds the benchmark's own load: at most this many client
// goroutines, over at most this many connections per server.
const maxClients = 2

func startNode(id, dir string, cacheEntries int, fc fleetConfig) (*node, error) {
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{
		Workers: 1, CacheEntries: cacheEntries, WorkerID: id, Store: st,
		RequestTimeout: 30 * time.Second, Logf: fc.logf,
	})
	return &node{id: id, srv: srv, ts: httptest.NewServer(fc.tracer.wrap(id, srv.Handler())), store: st}, nil
}

// bootFleet starts the stack and waits until every daemon answers /healthz.
// The standalone server opens whatever store already sits in its directory.
func bootFleet(fc fleetConfig) (*fleet, error) {
	f := &fleet{}
	for _, id := range []string{"w1", "w2"} {
		n, err := startNode(id, filepath.Join(fc.dir, id), 0, fc)
		if err != nil {
			f.drain()
			return nil, err
		}
		f.workers = append(f.workers, n)
	}
	soloDir := fc.soloDir
	if soloDir == "" {
		soloDir = filepath.Join(fc.dir, "solo")
	}
	solo, err := startNode("solo", soloDir, fc.soloCache, fc)
	if err != nil {
		f.drain()
		return nil, err
	}
	f.solo = solo
	coord, err := cluster.New(cluster.Config{
		Workers: []cluster.WorkerSpec{
			{ID: "w1", URL: f.workers[0].ts.URL},
			{ID: "w2", URL: f.workers[1].ts.URL},
		},
		MaxPerWorker:      32,
		MaxInflight:       4,
		PollInterval:      20 * time.Millisecond,
		HealthInterval:    time.Second,
		RequestTimeout:    10 * time.Second,
		HTTPTimeout:       30 * time.Second,
		RebalanceInterval: 5 * time.Second,
		Logf:              fc.logf,
	})
	if err != nil {
		f.drain()
		return nil, err
	}
	f.coord = coord
	f.coordTS = httptest.NewServer(fc.tracer.wrap("coord", coord.Handler()))

	f.transport = &http.Transport{
		MaxConnsPerHost:     maxClients,
		MaxIdleConnsPerHost: maxClients,
		DisableCompression:  true,
	}
	var rt http.RoundTripper = f.transport
	if fc.tracer != nil {
		rt = &tracedTransport{t: fc.tracer, next: f.transport}
	}
	f.coordClient = newClient(f.coordTS.URL, rt)
	f.soloClient = newClient(f.solo.ts.URL, rt)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	probes := []*serve.Client{f.coordClient, f.soloClient}
	for _, w := range f.workers {
		probes = append(probes, newClient(w.ts.URL, rt))
	}
	for _, c := range probes {
		if err := c.Healthz(ctx); err != nil {
			f.drain()
			return nil, fmt.Errorf("fleet not healthy: %w", err)
		}
	}
	return f, nil
}

func newClient(url string, rt http.RoundTripper) *serve.Client {
	c := serve.NewClient(url)
	c.HTTP = &http.Client{Transport: rt, Timeout: 60 * time.Second}
	return c
}

// servers lists every daemon that runs simulations.
func (f *fleet) servers() []*node { return append(append([]*node(nil), f.workers...), f.solo) }

// drain shuts the stack down in dependency order (coordinator before its
// workers) and then checks the conservation laws on every queue, on the
// coordinator and on every batch it ran: admitted = completed + failed +
// dropped, with nothing failed or dropped, and completed = expanded. It also
// cleans up after a boot that failed part-way.
func (f *fleet) drain() error {
	var errs []error
	check := func(who string, admitted, completed, failed, dropped int64) {
		if admitted != completed+failed+dropped || failed != 0 || dropped != 0 {
			errs = append(errs, fmt.Errorf("%s conservation: admitted %d, completed %d, failed %d, dropped %d",
				who, admitted, completed, failed, dropped))
		}
	}
	if f.coord != nil {
		f.coord.Drain(time.Minute)
		cs := f.coord.Stats()
		check("coordinator", cs.Admitted, cs.Completed, cs.Failed, cs.Dropped)
		for _, id := range f.batches {
			if b, ok := f.coord.Batches().Get(id); ok {
				if st := b.Status(); st.Completed != st.Expanded {
					errs = append(errs, fmt.Errorf("batch %s: completed %d of %d shards", id, st.Completed, st.Expanded))
				}
			}
		}
	}
	if f.coordTS != nil {
		f.coordTS.Close()
	}
	for _, n := range f.servers() {
		if n == nil {
			continue
		}
		n.srv.Drain(time.Minute)
		n.ts.Close()
		qs := n.srv.Queue().Stats()
		check(n.id+" queue", qs.Admitted, qs.Completed, qs.Failed, qs.Dropped)
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

// prefillStore writes results into a store directory the way a previous
// server lifetime would have left them.
func prefillStore(dir string, keys []string, vals [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		return err
	}
	for i, k := range keys {
		if err := st.Put(k, vals[i]); err != nil {
			return err
		}
	}
	return nil
}

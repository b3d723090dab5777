// Command wrtcoord fronts a fleet of wrtserved workers with the identical
// /v1/runs HTTP/JSON API — a drop-in replacement for a single wrtserved
// that shards work across machines. Scenarios are routed by content hash on
// a consistent-hash ring, so identical specs always land on the same worker
// and the per-worker LRU caches compose into one cluster-wide exact cache.
// Dead workers are ejected by health probes and their jobs redispatched to
// the ring's next live owner; determinism keeps failover results
// byte-identical.
//
//	wrtcoord -addr :8090 -worker a=http://host1:8080 -worker b=http://host2:8080
//
// Workers can join a running cluster: POST /v1/workers {"id","url"} rebuilds
// the ring and the rebalancer (-rebalance) asks each new owner to pull its
// key range from prior owners' durable stores, so cache affinity survives
// membership changes.
//
//	curl -s localhost:8090/healthz
//	curl -s -X POST localhost:8090/v1/runs -d '{"scenarios":[{"N":10,"Seed":1}]}'
//	curl -s localhost:8090/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/rtnet/wrtring/internal/cluster"
	"github.com/rtnet/wrtring/internal/serve"
)

// workerFlags collects repeated -worker id=url flags.
type workerFlags []cluster.WorkerSpec

func (w *workerFlags) String() string {
	parts := make([]string, len(*w))
	for i, spec := range *w {
		parts[i] = spec.ID + "=" + spec.URL
	}
	return strings.Join(parts, ",")
}

func (w *workerFlags) Set(v string) error {
	id, url, ok := strings.Cut(v, "=")
	if !ok || id == "" || url == "" {
		return fmt.Errorf("worker %q is not id=url", v)
	}
	*w = append(*w, cluster.WorkerSpec{ID: id, URL: url})
	return nil
}

func main() {
	var workers workerFlags
	flag.Var(&workers, "worker", "worker as id=url (repeatable)")
	addr := flag.String("addr", ":8090", "listen address")
	maxPerWorker := flag.Int("max-per-worker", 32, "outstanding single-run bound per worker shard (batch shards do not count)")
	maxInflight := flag.Int("max-inflight", 4, "concurrent single-run dispatches per worker")
	replicas := flag.Int("replicas", cluster.DefaultReplicas, "virtual nodes per worker on the hash ring")
	poll := flag.Duration("poll", 20*time.Millisecond, "pause before asking a worker again when a held status read expires with the job still running")
	health := flag.Duration("health", time.Second, "health-probe interval")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request timeout to workers")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for outstanding jobs")
	httpTimeout := flag.Duration("http-timeout", 30*time.Second, "per-request deadline on inbound API endpoints (debug endpoints exempt)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logEntries := flag.Int("log-entries", 0, "access-log ring size for /debug/log (0 = default)")
	maxBatchPoints := flag.Int64("max-batch-points", serve.DefaultMaxBatchPoints, "max points one /v1/batches grid may expand to")
	rebalance := flag.Duration("rebalance", 5*time.Second, "shard-handoff planning interval after membership changes (0 = disabled)")
	handoffBatch := flag.Int("handoff-batch", cluster.DefaultHandoffBatch, "max keys per pull request sent to one worker during rebalancing")
	flag.Parse()

	if len(workers) == 0 {
		fmt.Fprintln(os.Stderr, "wrtcoord: at least one -worker id=url is required")
		os.Exit(2)
	}

	coord, err := cluster.New(cluster.Config{
		Workers:           workers,
		MaxPerWorker:      *maxPerWorker,
		MaxInflight:       *maxInflight,
		Replicas:          *replicas,
		PollInterval:      *poll,
		HealthInterval:    *health,
		RequestTimeout:    *reqTimeout,
		HTTPTimeout:       *httpTimeout,
		EnablePprof:       *pprofOn,
		LogEntries:        *logEntries,
		MaxBatchPoints:    *maxBatchPoints,
		RebalanceInterval: *rebalance,
		HandoffBatch:      *handoffBatch,
	})
	if err != nil {
		log.Fatalf("wrtcoord: %v", err)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           coord.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Shutdown waits for active requests: answer held status reads at once.
	httpSrv.RegisterOnShutdown(coord.ReleaseWaits)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("wrtcoord: listening on %s fronting %d workers (%s)",
			*addr, len(workers), workers.String())
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	select {
	case err := <-errCh:
		if err != nil {
			log.Fatalf("wrtcoord: %v", err)
		}
		return
	case <-ctx.Done():
	}

	log.Printf("wrtcoord: signal received, draining (deadline %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("wrtcoord: http shutdown: %v", err)
	}
	report := coord.Drain(*drain)
	st := coord.Stats()
	log.Printf("wrtcoord: drained: completed=%d failed=%d dropped=%d deadlineExceeded=%v",
		report.Completed, report.Failed, report.Dropped, report.DeadlineExceeded)
	log.Printf("wrtcoord: totals: admitted=%d completed=%d failed=%d dropped=%d rejected=%d redispatched=%d remoteCacheHits=%d",
		st.Admitted, st.Completed, st.Failed, st.Dropped, st.Rejected, st.Redispatched, st.RemoteCacheHits)
	if st.Admitted != st.Completed+st.Failed+st.Dropped {
		fmt.Fprintf(os.Stderr, "wrtcoord: accounting imbalance: admitted %d != completed %d + failed %d + dropped %d\n",
			st.Admitted, st.Completed, st.Failed, st.Dropped)
		os.Exit(1)
	}
}

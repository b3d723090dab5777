// Command wrtserved runs the scenario repository as a long-lived HTTP/JSON
// service: clients POST batches of scenarios, the bounded job queue executes
// them on the internal/runner worker pool, and a content-addressed LRU cache
// serves repeated specs without re-simulating (determinism makes the cached
// bytes exactly what a fresh run would produce).
//
//	wrtserved -addr :8080 -workers 8 -queue 512 -cache-entries 4096
//	wrtserved -addr :8080 -store-dir /var/lib/wrtring/store   # durable cache
//
// With -store-dir the RAM cache gains a durable tier: every result is also
// appended to a content-addressed on-disk store (segment files, checksummed),
// the shard is re-indexed on boot so a restarted worker serves its whole
// cache history without re-simulating, and the /v1/store endpoints let
// cluster peers pull keys during ring rebalancing (see cmd/wrtstore for
// offline inspection of a shard directory).
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/runs -d '{"scenarios":[{"N":10,"Seed":1}]}'
//	curl -s localhost:8080/v1/runs/<id>
//	curl -s 'localhost:8080/v1/runs/<id>?wait=10s'   # held until the run finishes
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM trigger graceful shutdown: the listener stops accepting,
// in-flight jobs get -drain to finish, and abandoned work is reported.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/rtnet/wrtring/internal/serve"
	"github.com/rtnet/wrtring/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "simulation workers (0 = one per CPU)")
	queueCap := flag.Int("queue", 256, "max queued jobs (admission bound)")
	cacheEntries := flag.Int("cache-entries", serve.DefaultCacheEntries, "max cached results")
	cacheBytes := flag.Int64("cache-bytes", 0, "max cached result bytes (0 = entries bound only)")
	storeDir := flag.String("store-dir", "", "durable result-store directory; results are written through and warm-start on boot (empty = RAM cache only)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "max bytes on disk in -store-dir before the oldest segments are dropped (0 = unbounded)")
	storeNoSync := flag.Bool("store-no-sync", false, "skip fsync on store writes (faster; a power loss may lose the last results)")
	handoffRate := flag.Int("handoff-rate", serve.DefaultHandoffRate, "max keys per second pulled from peers during shard handoff")
	maxBatch := flag.Int("max-batch", 256, "max scenarios per submission")
	maxBatchPoints := flag.Int64("max-batch-points", serve.DefaultMaxBatchPoints, "max points one /v1/batches grid may expand to")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight jobs")
	workerID := flag.String("id", "", "worker identity when serving behind a wrtcoord cluster (surfaced on /healthz, /metrics, /v1/stats)")
	httpTimeout := flag.Duration("http-timeout", 30*time.Second, "per-request deadline on API endpoints (debug endpoints exempt)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logEntries := flag.Int("log-entries", 0, "access-log ring size for /debug/log (0 = default)")
	flag.Parse()

	var disk *store.Store
	if *storeDir != "" {
		var err error
		disk, err = store.Open(*storeDir, store.Options{MaxBytes: *storeMaxBytes, NoSync: *storeNoSync})
		if err != nil {
			log.Fatalf("wrtserved: opening store %s: %v", *storeDir, err)
		}
		st := disk.Stats()
		log.Printf("wrtserved: store %s: %d results (%d bytes) warm, %d quarantined",
			*storeDir, st.Entries, st.Bytes, disk.QuarantineCount())
	}

	srv := serve.New(serve.Config{
		Workers: *workers, QueueCapacity: *queueCap,
		CacheEntries: *cacheEntries, CacheBytes: *cacheBytes,
		Store: disk, HandoffRate: *handoffRate,
		MaxBatch: *maxBatch, MaxBatchPoints: *maxBatchPoints, WorkerID: *workerID,
		RequestTimeout: *httpTimeout, EnablePprof: *pprofOn, LogEntries: *logEntries,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Shutdown waits for active requests: answer held status reads at once.
	httpSrv.RegisterOnShutdown(srv.ReleaseWaits)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		label := ""
		if *workerID != "" {
			label = " as worker " + *workerID
		}
		log.Printf("wrtserved: listening on %s%s (workers=%d queue=%d cache=%d entries)",
			*addr, label, *workers, *queueCap, *cacheEntries)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	select {
	case err := <-errCh:
		if err != nil {
			log.Fatalf("wrtserved: %v", err)
		}
		return
	case <-ctx.Done():
	}

	log.Printf("wrtserved: signal received, draining (deadline %s)", *drain)
	// Stop accepting new connections first so no submissions race the drain,
	// then give in-flight simulations their deadline.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("wrtserved: http shutdown: %v", err)
	}
	report := srv.Drain(*drain)
	qs := srv.Queue().Stats()
	cs := srv.Cache().Stats()
	log.Printf("wrtserved: drained: completed=%d failed=%d dropped=%d deadlineExceeded=%v",
		report.Completed, report.Failed, report.Dropped, report.DeadlineExceeded)
	log.Printf("wrtserved: totals: admitted=%d completed=%d failed=%d dropped=%d rejected=%d coalesced=%d cacheHitRatio=%.3f",
		qs.Admitted, qs.Completed, qs.Failed, qs.Dropped, qs.Rejected, qs.Coalesced, cs.HitRatio())
	if qs.Admitted != qs.Completed+qs.Failed+qs.Dropped {
		// The conservation law is the service's accounting invariant; a
		// violation means lost work and is worth a loud exit.
		fmt.Fprintf(os.Stderr, "wrtserved: accounting imbalance: admitted %d != completed %d + failed %d + dropped %d\n",
			qs.Admitted, qs.Completed, qs.Failed, qs.Dropped)
		os.Exit(1)
	}
}

package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"github.com/rtnet/wrtring/internal/httpx"
	"github.com/rtnet/wrtring/internal/serve"
)

// This file is the coordinator's HTTP surface. It speaks the identical
// /v1/runs protocol as wrtserved — same request/response bodies
// (serve.SubmitRequest etc.), same status strings, same backpressure
// headers — so any client, including serve.Client and cmd/wrtsweep's remote
// mode, targets a single node or a cluster interchangeably. The submit
// batch loop itself is serve.HandleBatchSubmit, shared with wrtserved, so
// the partial-admission contract (admitted IDs always reach the client)
// cannot drift between the two servers.

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	serve.HandleBatchSubmit(w, r, serve.BatchSubmitOptions{
		MaxBatch:   serve.DefaultMaxBatch,
		RetryAfter: c.cfg.RetryAfter,
		Submit:     c.Submit,
	})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := c.jobs.Status(id)
	if ok && !st.State.Terminal() && r.URL.RawQuery != "" {
		// A held read: answer once the job is terminal, or with its state
		// when the wait runs out first.
		ctx, cancel, err := serve.HoldContext(c.surface, r)
		if err != nil {
			httpx.Error(w, r, http.StatusBadRequest, err.Error())
			return
		}
		st, ok = c.jobs.Await(ctx, id)
		cancel()
	}
	if !ok {
		httpx.Error(w, r, http.StatusNotFound,
			"unknown run ID (never submitted, or its record aged out; resubmit the scenario)")
		return
	}
	snapshot := serve.StatusResponse{
		ID: id, Status: st.State.String(), Cached: st.Cached,
		Coalesced: st.Coalesced, ElapsedMs: st.Elapsed.Milliseconds(), Error: st.Err,
	}
	if st.State != serve.StateDone {
		httpx.WriteJSON(w, http.StatusOK, snapshot)
		return
	}
	// Done: the result bytes live in the owner worker's cache shard. Proxy
	// them through; on any failure the job stays "done" (the work happened)
	// with a recovery hint — resubmitting recomputes the identical bytes.
	res, err := c.fetchResult(r.Context(), id, st.Worker)
	if err != nil {
		snapshot.Error = err.Error()
		httpx.WriteJSON(w, http.StatusOK, snapshot)
		return
	}
	snapshot.Result = res.Result
	snapshot.TraceEvents = res.TraceEvents
	httpx.WriteJSON(w, http.StatusOK, snapshot)
}

// fetchResult proxies a done job's status (result bytes included) from its
// owner worker's cache shard. The worker handle can be missing entirely (a
// job recorded against a worker the coordinator no longer knows, e.g. after
// a config change); that is a recovery case — resubmitting recomputes the
// identical bytes — not a panic. Shared by handleStatus and the batch
// backend's JobResult.
func (c *Coordinator) fetchResult(ctx context.Context, id, workerID string) (*serve.StatusResponse, error) {
	c.mu.Lock()
	worker, ok := c.workers[workerID]
	c.mu.Unlock()
	if !ok || worker == nil {
		return nil, fmt.Errorf(
			"result unavailable from worker %q (unknown or removed); resubmit the scenario to recompute", workerID)
	}
	code, st, err := worker.client.Status(ctx, id)
	if err != nil || code != http.StatusOK || st.Result == nil {
		return nil, fmt.Errorf(
			"result unavailable from worker %s (evicted or worker lost); resubmit the scenario to recompute", workerID)
	}
	return st, nil
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := c.Stats()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
	fmt.Fprintf(w, "coordinator: %d/%d workers live\n", st.LiveWorkers, st.Workers)
}

// WorkerInfo is one fleet member in the GET /v1/workers body.
type WorkerInfo struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
}

// WorkersResponse is the GET /v1/workers body.
type WorkersResponse struct {
	Workers []WorkerInfo `json:"workers"`
}

func (c *Coordinator) handleWorkersList(w http.ResponseWriter, _ *http.Request) {
	fleet := c.fleet()
	out := WorkersResponse{Workers: make([]WorkerInfo, 0, len(fleet))}
	for _, ww := range fleet {
		out.Workers = append(out.Workers, WorkerInfo{ID: ww.id, URL: ww.url, Alive: ww.isAlive()})
	}
	httpx.WriteJSON(w, http.StatusOK, out)
}

// handleWorkerAdd admits a worker to the running cluster: POST /v1/workers
// with a WorkerSpec body. The ring is rebuilt and the rebalancer woken, so
// the new member starts pulling its key range immediately (rebalance.go).
func (c *Coordinator) handleWorkerAdd(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}
	if err := dec.Decode(&spec); err != nil {
		httpx.Error(w, r, http.StatusBadRequest, fmt.Sprintf("parsing request: %v", err))
		return
	}
	if u, err := url.Parse(spec.URL); err != nil || u.Scheme == "" || u.Host == "" {
		httpx.Error(w, r, http.StatusBadRequest, "url must be an absolute base URL")
		return
	}
	if err := c.AddWorker(WorkerSpec{ID: spec.ID, URL: spec.URL}); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrDraining) {
			status = http.StatusServiceUnavailable
		}
		httpx.Error(w, r, status, err.Error())
		return
	}
	httpx.WriteJSON(w, http.StatusCreated, WorkerInfo{ID: spec.ID, URL: spec.URL, Alive: true})
}

// handleMetrics exposes the cluster counters plus a per-worker section. The
// per-worker queue/cache numbers are scraped live from each worker's
// /v1/stats (JSON) with a short deadline; a worker that does not answer is
// simply absent from that section, flagged by its up gauge.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := c.Stats()
	fleet := c.fleet()
	var m httpx.Metrics
	m.Metric("wrtcoord_workers", st.Workers, "fleet members (config plus runtime additions)")
	m.Metric("wrtcoord_workers_live", st.LiveWorkers, "workers currently passing health checks")
	m.Metric("wrtcoord_draining", httpx.BoolMetric(st.Draining), "1 while graceful shutdown is in progress")
	m.Metric("wrtcoord_admitted_total", st.Admitted, "jobs admitted by the coordinator")
	m.Metric("wrtcoord_completed_total", st.Completed, "jobs completed on a worker")
	m.Metric("wrtcoord_failed_total", st.Failed, "jobs terminally failed")
	m.Metric("wrtcoord_dropped_total", st.Dropped, "jobs abandoned during shutdown")
	m.Metric("wrtcoord_rejected_total", st.Rejected, "submissions refused (saturation, draining, no workers)")
	m.Metric("wrtcoord_coalesced_total", st.Coalesced, "duplicate submissions folded onto in-flight jobs")
	m.Metric("wrtcoord_redispatched_total", st.Redispatched, "job moves to another worker after a failure")
	m.Metric("wrtcoord_remote_cache_hits_total", st.RemoteCacheHits, "dispatches answered from a worker's cache shard")
	bsStats := c.batches.Stats()
	m.Metric("wrtcoord_batches_created_total", bsStats.Created, "batches accepted by POST /v1/batches")
	m.Metric("wrtcoord_batches_active", bsStats.Active, "retained batches still running")

	scrapes := c.scrapeWorkers(r.Context(), fleet)
	var hits, misses, evictions, fleetAdmitted, fleetCompleted int64
	var storeHits, handoffPulled int64
	for _, w := range fleet {
		label := fmt.Sprintf("id=%q", w.id)
		m.Help("wrtcoord_worker_up", "1 while the worker passes health checks")
		m.Labeled("wrtcoord_worker_up", label, httpx.BoolMetric(w.isAlive()))
		m.Help("wrtcoord_worker_outstanding", "coordinator-side outstanding jobs on the worker")
		m.Labeled("wrtcoord_worker_outstanding", label, w.queueDepth())
		ws, ok := scrapes[w.id]
		if !ok {
			continue
		}
		hits += ws.Cache.Hits
		misses += ws.Cache.Misses
		evictions += ws.Cache.Evictions
		fleetAdmitted += ws.Queue.Admitted
		fleetCompleted += ws.Queue.Completed
		storeHits += ws.Cache.DiskHits
		handoffPulled += ws.Handoff.Pulled
		m.Labeled("wrtcoord_worker_queue_depth", label, ws.Queue.Depth)
		m.Labeled("wrtcoord_worker_cache_entries", label, ws.Cache.Entries)
		m.Labeled("wrtcoord_worker_cache_hits_total", label, ws.Cache.Hits)
		m.Labeled("wrtcoord_worker_cache_bytes", label, ws.Cache.Bytes)
		m.Labeled("wrtcoord_worker_store_hits_total", label, ws.Cache.DiskHits)
		m.Labeled("wrtcoord_worker_handoff_pulled_total", label, ws.Handoff.Pulled)
		if ws.Store != nil {
			m.Labeled("wrtcoord_worker_store_entries", label, ws.Store.Entries)
			m.Labeled("wrtcoord_worker_store_bytes", label, ws.Store.Bytes)
		}
	}
	m.Metric("wrtcoord_fleet_cache_hits_total", hits, "cache hits summed over answering workers")
	m.Metric("wrtcoord_fleet_cache_misses_total", misses, "cache misses summed over answering workers")
	m.Metric("wrtcoord_fleet_cache_evictions_total", evictions, "cache evictions summed over answering workers")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	m.Metric("wrtcoord_fleet_cache_hit_ratio", fmt.Sprintf("%.6f", ratio), "fleet-wide hits / (hits + misses)")
	m.Metric("wrtcoord_fleet_admitted_total", fleetAdmitted, "worker-side admissions summed over answering workers")
	m.Metric("wrtcoord_fleet_completed_total", fleetCompleted, "worker-side completions summed over answering workers")
	m.Metric("wrtcoord_fleet_store_hits_total", storeHits, "durable-tier cache hits summed over answering workers")
	m.Metric("wrtcoord_fleet_handoff_pulled_total", handoffPulled, "shard-handoff keys pulled, summed over answering workers")
	rb := c.RebalanceStats()
	m.Metric("wrtcoord_rebalance_sweeps_total", rb.Sweeps, "completed shard-handoff planning sweeps")
	m.Metric("wrtcoord_rebalance_keys_total", rb.KeysRequested, "keys the rebalancer asked owners to pull")
	m.Metric("wrtcoord_rebalance_errors_total", rb.Errors, "failed index fetches and rejected pull requests")

	for _, ls := range c.jobs.LatencySnapshot() {
		label := fmt.Sprintf(`worker=%q`, ls.Label)
		m.Help("wrtcoord_job_latency_ms", "end-to-end dispatch+run latency per worker")
		m.Labeled("wrtcoord_job_latency_ms_count", label, ls.N)
		m.Labeled("wrtcoord_job_latency_ms_mean", label, fmt.Sprintf("%.3f", ls.MeanMs))
		m.Labeled("wrtcoord_job_latency_ms", label+`,quantile="0.5"`, ls.P50Ms)
		m.Labeled("wrtcoord_job_latency_ms", label+`,quantile="0.9"`, ls.P90Ms)
		m.Labeled("wrtcoord_job_latency_ms", label+`,quantile="0.99"`, ls.P99Ms)
	}

	m.WriteTo(w)
}

// scrapeWorkers fetches /v1/stats from every live worker concurrently.
func (c *Coordinator) scrapeWorkers(ctx context.Context, fleet []*worker) map[string]*serve.ServiceStats {
	deadline := c.cfg.RequestTimeout
	if deadline > 2*time.Second {
		deadline = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	var mu sync.Mutex
	out := make(map[string]*serve.ServiceStats, len(fleet))
	var wg sync.WaitGroup
	for _, w := range fleet {
		if !w.isAlive() {
			continue
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			st, err := w.client.Stats(ctx)
			if err != nil {
				return
			}
			mu.Lock()
			out[w.id] = st
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return out
}

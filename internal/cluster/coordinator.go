package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/httpx"
	"github.com/rtnet/wrtring/internal/serve"
)

// WorkerSpec names one wrtserved worker in the fleet.
type WorkerSpec struct {
	// ID labels the worker on the hash ring and in metrics.
	ID string
	// URL is the worker's base URL (http://host:port).
	URL string
}

// Config sizes a Coordinator.
type Config struct {
	// Workers is the fleet (at least one).
	Workers []WorkerSpec
	// MaxPerWorker bounds outstanding jobs (queued + running) per worker;
	// submissions beyond it are rejected with 429 (<= 0: 32). This is the
	// queue-depth-aware backpressure: a spec's shard being saturated means
	// the cluster as a whole asks the client to back off, because cache
	// affinity forbids spilling the spec onto an arbitrary idle worker.
	MaxPerWorker int
	// MaxInflight bounds concurrent dispatches per worker (<= 0: 4).
	MaxInflight int
	// Replicas is the virtual-node count per worker (<= 0: DefaultReplicas).
	Replicas int
	// PollInterval is the pause before the dispatcher asks a worker again
	// when a held status read (GET /v1/runs/{id}?wait=) came back with the
	// job still running — its wait expired, or the worker is shutting down
	// (<= 0: 20 ms). Completion itself is pushed, not polled.
	PollInterval time.Duration
	// HealthInterval paces liveness probing (<= 0: 1 s). An ejected worker
	// is re-probed on a backoff that doubles from it up to probeBackoffMax.
	HealthInterval time.Duration
	// RequestTimeout bounds each worker HTTP call (<= 0: 10 s). A held
	// status read asks the worker to wait half of it.
	RequestTimeout time.Duration
	// RetryAfter is the backpressure hint on 429/503 responses
	// (<= 0: serve.DefaultRetryAfter).
	RetryAfter time.Duration
	// MaxBatchPoints bounds one /v1/batches grid's expansion
	// (<= 0: serve.DefaultMaxBatchPoints).
	MaxBatchPoints int64
	// HTTPTimeout bounds each inbound API request end to end
	// (<= 0: httpx.DefaultRequestTimeout); distinct from RequestTimeout,
	// which bounds the coordinator's own calls to workers. Debug endpoints
	// are exempt. A held status read (?wait=) waits at most half of it.
	HTTPTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/
	// (cmd/wrtcoord -pprof).
	EnablePprof bool
	// LogEntries sizes the /debug/log access-log ring
	// (<= 0: httpx.DefaultLogEntries).
	LogEntries int
	// RebalanceInterval paces shard-handoff planning sweeps (see
	// rebalance.go). <= 0 disables rebalancing entirely; membership changes
	// still work, but results stay where they were computed.
	RebalanceInterval time.Duration
	// HandoffBatch caps keys per pull request a sweep sends to one owner
	// (<= 0: DefaultHandoffBatch).
	HandoffBatch int
	// Logf receives operational events (ejections, readmissions,
	// redispatches); nil means log.Printf.
	Logf func(format string, args ...any)
}

// Admission errors. Each matches the serve class its HTTP status comes
// from: 429 for ErrQueueFull, 503 for ErrDraining.
var (
	// ErrSaturated rejects a submission because the spec's shard — the hash
	// ring owner and by extension the cluster for this key — has no room
	// (HTTP 429 + Retry-After).
	ErrSaturated = serve.Refusal("cluster: shard saturated", serve.ErrQueueFull)
	// ErrDraining rejects a submission during coordinator shutdown (503).
	ErrDraining = serve.Refusal("cluster: coordinator is draining", serve.ErrDraining)
	// ErrNoWorkers rejects a submission while every worker is ejected (503).
	ErrNoWorkers = serve.Refusal("cluster: no live workers", serve.ErrDraining)
)

// Limits that are not configurable.
const (
	// probeBackoffMax caps an ejected worker's readmission backoff.
	probeBackoffMax = 30 * time.Second
	// attemptsPerWorker × fleet size bounds dispatch attempts per job
	// before it fails.
	attemptsPerWorker = 3
)

// Coordinator fans /v1/runs submissions out to the worker fleet with
// cache-affine consistent-hash dispatch and redispatch-on-death failover.
// Its jobs live in a serve.Table; the coordinator adds the admission gate
// (a live ring owner with room) and the dispatchers that execute each job
// on a worker.
type Coordinator struct {
	cfg     Config
	jobs    *serve.Table
	surface *httpx.Surface
	batches *serve.Batches
	logf    func(format string, args ...any)
	chanCap int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// rebalanceCh wakes the handoff planner early (AddWorker, readmission);
	// nil when RebalanceInterval <= 0.
	rebalanceCh                   chan struct{}
	rebSweeps, rebKeys, rebErrors atomic.Int64

	redispatched, remoteCacheHits atomic.Int64

	// mu guards the fleet. It is taken before the table's lock.
	mu      sync.Mutex
	ring    *Ring
	workers map[string]*worker
	order   []*worker // admission order, for stable metrics/iteration
}

// ClusterStats is a point-in-time snapshot of the coordinator counters.
// The conservation law Admitted == Completed + Failed + Dropped holds once
// the coordinator is drained.
type ClusterStats struct {
	Admitted, Completed, Failed, Dropped int64
	Rejected, Coalesced                  int64
	// Redispatched counts job moves to another worker after a dispatch,
	// status-read or health failure.
	Redispatched int64
	// RemoteCacheHits counts dispatches a worker answered from its shard of
	// the cluster cache without running anything.
	RemoteCacheHits int64
	// Workers is the current fleet size (AddWorker grows it at runtime).
	Workers     int
	LiveWorkers int
	Draining    bool
}

// New builds a coordinator over the fleet and starts its dispatchers and
// health prober.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	if cfg.MaxPerWorker <= 0 {
		cfg.MaxPerWorker = 32
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 20 * time.Millisecond
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = serve.DefaultRetryAfter
	}
	if cfg.HandoffBatch <= 0 {
		cfg.HandoffBatch = DefaultHandoffBatch
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}

	ids := make([]string, 0, len(cfg.Workers))
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:     cfg,
		jobs:    serve.NewTable(ErrDraining),
		workers: make(map[string]*worker, len(cfg.Workers)),
		surface: httpx.NewSurface(httpx.Config{
			RequestTimeout: cfg.HTTPTimeout,
			Pprof:          cfg.EnablePprof,
			LogEntries:     cfg.LogEntries,
			Logf:           cfg.Logf,
		}),
		logf:   cfg.Logf,
		ctx:    ctx,
		cancel: cancel,
	}
	// A job channel can hold at most every outstanding job in the cluster
	// (redispatch conserves the total, admission bounds it), so this cap
	// makes every enqueue non-blocking by construction. AddWorker grows the
	// cluster-wide bound without resizing existing channels; the enqueue
	// failure path covers that (now merely theoretical) overflow.
	c.chanCap = len(cfg.Workers)*cfg.MaxPerWorker + 16
	for _, spec := range cfg.Workers {
		if spec.ID == "" || spec.URL == "" {
			cancel()
			return nil, fmt.Errorf("cluster: worker spec %+v needs both ID and URL", spec)
		}
		if _, dup := c.workers[spec.ID]; dup {
			cancel()
			return nil, fmt.Errorf("cluster: duplicate worker ID %q", spec.ID)
		}
		w := newWorker(spec, c.chanCap, cfg.RequestTimeout, cfg.MaxInflight)
		c.workers[spec.ID] = w
		c.order = append(c.order, w)
		ids = append(ids, spec.ID)
	}
	c.ring = NewRing(ids, cfg.Replicas)

	c.batches = c.newBatches()
	mux := c.surface.Mux()
	mux.HandleFunc("POST /v1/runs", c.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", c.handleStatus)
	mux.HandleFunc("GET /v1/workers", c.handleWorkersList)
	mux.HandleFunc("POST /v1/workers", c.handleWorkerAdd)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	serve.MountBatchAPI(c.surface, c.batches, cfg.RetryAfter)

	for _, w := range c.order {
		for i := 0; i < cfg.MaxInflight; i++ {
			c.wg.Add(1)
			go c.runWorker(w)
		}
	}
	c.wg.Add(1)
	go c.healthLoop()
	if cfg.RebalanceInterval > 0 {
		c.rebalanceCh = make(chan struct{}, 1)
		c.wg.Add(1)
		go c.rebalanceLoop()
	}
	return c, nil
}

// AddWorker admits a new worker to a running cluster: the hash ring is
// rebuilt with the grown membership (shrinking every existing worker's key
// range a little), dispatchers start, and the rebalancer is woken so the new
// owner pulls the keys it now owns from their prior holders. Until those
// pulls land, misplaced keys simply recompute on the new owner — correctness
// never depends on the handoff, only cache efficiency does.
func (c *Coordinator) AddWorker(spec WorkerSpec) error {
	if spec.ID == "" || spec.URL == "" {
		return fmt.Errorf("cluster: worker spec %+v needs both ID and URL", spec)
	}
	c.mu.Lock()
	if c.jobs.Stats().Draining {
		c.mu.Unlock()
		return ErrDraining
	}
	if _, dup := c.workers[spec.ID]; dup {
		c.mu.Unlock()
		return fmt.Errorf("cluster: duplicate worker ID %q", spec.ID)
	}
	w := newWorker(spec, c.chanCap, c.cfg.RequestTimeout, c.cfg.MaxInflight)
	c.workers[spec.ID] = w
	c.order = append(c.order, w)
	ids := make([]string, 0, len(c.order))
	for _, ww := range c.order {
		ids = append(ids, ww.id)
	}
	c.ring = NewRing(ids, c.cfg.Replicas)
	// wg.Add under mu, after the draining check: Drain sets draining before
	// stop cancels under mu and waits, so a racing AddWorker either starts
	// these goroutines before the Wait or is refused above.
	for i := 0; i < c.cfg.MaxInflight; i++ {
		c.wg.Add(1)
		go c.runWorker(w)
	}
	members := len(ids)
	c.mu.Unlock()

	c.logf("cluster: added worker %s (%s); ring rebuilt over %d members", spec.ID, spec.URL, members)
	c.wakeRebalancer()
	return nil
}

// fleet snapshots the worker list under mu, for iteration without holding
// the lock across network calls.
func (c *Coordinator) fleet() []*worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*worker(nil), c.order...)
}

// Handler returns the composed HTTP stack (also usable under httptest).
func (c *Coordinator) Handler() http.Handler { return c.surface.Handler() }

// Batches exposes the batch manager (tests).
func (c *Coordinator) Batches() *serve.Batches { return c.batches }

// Submit admits one scenario: it is routed to its hash-ring owner, coalesced
// onto an identical in-flight job, or answered from coordinator memory when
// already done. The returned outcome strings match serve's.
func (c *Coordinator) Submit(s wrtring.Scenario) (id, outcome string, err error) {
	id, err = serve.Key(s)
	if err != nil {
		return "", "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var owner *worker
	outcome, j, err := c.jobs.Submit(id, s, func(done bool, _ int) (string, string, error) {
		if done {
			// The job completed on its owner, whose cache shard holds the
			// bytes; GET /v1/runs/{id} proxies them from there.
			return serve.SubmitCached, "", nil
		}
		var ok bool
		if owner, ok = c.ownerLocked(id); !ok {
			return "", "", ErrNoWorkers
		}
		if owner.queueDepth() >= c.cfg.MaxPerWorker {
			return "", "", ErrSaturated
		}
		return serve.SubmitQueued, owner.id, nil
	})
	if j != nil {
		c.assign(j, owner)
	}
	return id, outcome, err
}

// ownerLocked resolves a key's live hash-ring owner.
func (c *Coordinator) ownerLocked(key string) (*worker, bool) {
	id, ok := c.ring.Owner(key, func(id string) bool { return c.workers[id].isAlive() })
	if !ok {
		return nil, false
	}
	return c.workers[id], true
}

// assign hands an admitted or requeued job to its worker's dispatchers. A
// full channel cannot happen with the capacity proof in New; the job fails
// rather than deadlock if the proof is ever broken.
func (c *Coordinator) assign(j *serve.Job, w *worker) {
	w.addDepth()
	if !w.enqueue(j) {
		w.dropDepth()
		c.jobs.Finish(j, serve.Outcome{State: serve.StateFailed,
			Err: "dispatch channel full (capacity invariant broken)"})
	}
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() ClusterStats {
	js := c.jobs.Stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ClusterStats{
		Admitted: js.Admitted, Completed: js.Completed, Failed: js.Failed,
		Dropped: js.Dropped, Rejected: js.Rejected, Coalesced: js.Coalesced,
		Redispatched: c.redispatched.Load(), RemoteCacheHits: c.remoteCacheHits.Load(),
		Workers: len(c.order), Draining: js.Draining,
	}
	for _, w := range c.order {
		if w.isAlive() {
			st.LiveWorkers++
		}
	}
	return st
}

// ReleaseWaits answers every held status read now, with the job's current
// status, and every later one at once, and ends every open batch result
// stream. Register it with http.Server.RegisterOnShutdown (cmd/wrtcoord
// does): Shutdown waits for active requests, so an open ?wait= or stream
// would otherwise delay exit.
func (c *Coordinator) ReleaseWaits() { c.surface.Release() }

// Drain gracefully shuts the coordinator down (see serve.Table.Drain):
// admission stops immediately (Submit returns ErrDraining), outstanding
// jobs get up to timeout to reach a terminal state on their workers, then
// the dispatchers are cancelled and whatever remains is reported dropped.
func (c *Coordinator) Drain(timeout time.Duration) serve.DrainReport {
	report := c.jobs.Drain(timeout, c.stop, "dropped: coordinator shut down before the job finished")
	// Every job is terminal now, so every batch shard waiter settles its
	// shard's accounting (conservation per batch) and returns; unfed shards
	// were rejected the moment admission saw ErrDraining.
	c.batches.Drain(timeout)
	return report
}

// stop cancels the dispatchers, health prober and rebalancer and waits for
// them. It cancels under mu so that AddWorker, which checks draining and
// starts dispatchers under mu, cannot add to the WaitGroup during the Wait.
func (c *Coordinator) stop() {
	c.mu.Lock()
	c.cancel()
	c.mu.Unlock()
	c.wg.Wait()
	for _, w := range c.fleet() {
		w.client.HTTP.CloseIdleConnections()
	}
}

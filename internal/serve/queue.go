package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/runner"
)

// State is a job's lifecycle position.
type State int

// Job states. Queued and Running are the in-flight states; the rest are
// terminal.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateDropped
)

// Terminal reports whether the state is final: done, failed or dropped.
func (s State) Terminal() bool { return s >= StateDone }

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateDropped:
		return "dropped"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Submission outcomes reported by Submit.
const (
	// SubmitQueued: a new job was admitted.
	SubmitQueued = "queued"
	// SubmitCached: the result was already cached; no job was created.
	SubmitCached = "cached"
	// SubmitCoalesced: an identical spec is already in flight; this
	// submission shares its job.
	SubmitCoalesced = "coalesced"
)

// Admission errors. Each is the class of refusal a daemon answers with
// one HTTP status; an engine's own refusals match one of them under
// errors.Is (see Refusal).
var (
	// ErrQueueFull rejects a submission because the engine is at capacity:
	// the admission-control backpressure signal (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining rejects a submission because admission is closed, as it
	// is once shutdown has begun (HTTP 503 + Retry-After).
	ErrDraining = errors.New("serve: server is draining")
)

// Refusal returns an admission error that reads msg and matches class
// (ErrQueueFull or ErrDraining) under errors.Is. An engine words its own
// refusals; the HTTP front ends and the batch feeder classify them by the
// two classes alone.
func Refusal(msg string, class error) error { return &refusal{msg, class} }

type refusal struct {
	msg   string
	class error
}

func (e *refusal) Error() string { return e.msg }
func (e *refusal) Unwrap() error { return e.class }

// JobStatus is the externally visible snapshot of a job or cached result.
type JobStatus struct {
	ID    string
	State State
	// Cached means the result bytes were served from a cache: on a single
	// node with no job record (a fresh-submission hit, or a completed job
	// whose record aged out); on the coordinator, a job its worker
	// answered from its cache shard.
	Cached bool
	// Coalesced counts additional submissions that shared this job.
	Coalesced int64
	// TraceEvents is the run's live journal total (scenarios with Trace
	// enabled only) — it advances while the job runs.
	TraceEvents uint64
	Err         string
	Elapsed     time.Duration
	// Worker is the fleet member a coordinator job is assigned to.
	Worker string
}

// QueueStats is a point-in-time snapshot of the queue counters. The
// conservation law Admitted == Completed + Failed + Dropped holds once the
// queue is fully drained (in flight, the difference is Depth + Running).
type QueueStats struct {
	Depth    int
	Running  int
	Draining bool

	Admitted  int64
	Completed int64
	Failed    int64
	Dropped   int64
	Rejected  int64
	Coalesced int64
}

// LatencyStats summarises one job-latency histogram.
type LatencyStats struct {
	// Label is what the histogram is kept per: the protocol on a single
	// node, the worker on the coordinator.
	Label      string
	N          int64
	MeanMs     float64
	P50Ms      int64
	P90Ms      int64
	P99Ms      int64
	MaxMs      int64
	Overflowed int64
}

// latencyCapMs bounds the latency histograms (samples above land in the
// overflow bucket; see internal/stats).
const latencyCapMs = 120_000

// DefaultFinishedRecords bounds retained terminal job records.
const DefaultFinishedRecords = 4096

// Queue is the bounded, admission-controlled job queue: the single-node
// engine on the job table. Submissions are content-addressed: a spec
// identical to an in-flight one coalesces onto the existing job, and a
// spec whose result is cached never becomes a job at all. Execution is
// delegated to internal/runner one job at a time per worker, which
// preserves the per-run determinism contract (each run owns its kernel and
// RNG; worker count changes wall clock, never bytes).
type Queue struct {
	jobs     *Table
	cache    *Cache
	capacity int
	// ch carries admitted jobs to the workers. The depth bound keeps it
	// below its capacity, so a send never blocks; it is never closed, and
	// the workers stop on ctx instead.
	ch chan *Job

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewQueue creates a queue of at most capacity pending jobs executed by the
// given number of workers (<= 0 means one per CPU, per internal/runner) and
// starts the workers.
func NewQueue(cache *Cache, capacity, workers int) *Queue {
	if capacity <= 0 {
		capacity = 256
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		jobs:     NewTable(ErrDraining),
		cache:    cache,
		capacity: capacity,
		ch:       make(chan *Job, capacity),
		ctx:      ctx,
		cancel:   cancel,
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit admits one scenario and returns its content-addressed job ID plus
// the submission outcome (SubmitQueued, SubmitCached or SubmitCoalesced).
// ErrQueueFull and ErrDraining reject the submission; the returned ID is
// still valid for retries.
func (q *Queue) Submit(s wrtring.Scenario) (id, outcome string, err error) {
	return q.submit(s, q.capacity)
}

// submit is Submit with the queue depth at which admission stops: the
// capacity for single runs, less for a batch's shards (batchHeadroom).
func (q *Queue) submit(s wrtring.Scenario, limit int) (id, outcome string, err error) {
	id, err = Key(s)
	if err != nil {
		return "", "", err
	}
	// Admission-path cache lookup: a hit is a completed job for free.
	if _, ok := q.cache.Get(id); ok {
		return id, SubmitCached, nil
	}
	outcome, j, err := q.jobs.Submit(id, s, func(_ bool, depth int) (string, string, error) {
		// Second cache check, under the table lock: a worker publishes
		// result bytes (cache.Put) strictly before it retires the job
		// (Finish takes the table lock), so a completion that raced the
		// lock-free lookup above is visible here. Without this, a duplicate
		// submission landing in the Put→Finish window re-admits and re-runs
		// a spec whose bytes are already cached. (If the entry was instead
		// evicted in that window, re-admission is the correct recovery:
		// deterministic re-run, identical bytes.)
		if _, ok := q.cache.GetIfPresent(id); ok {
			return SubmitCached, "", nil
		}
		if depth >= limit {
			return "", "", ErrQueueFull
		}
		return SubmitQueued, "", nil
	})
	if j != nil {
		q.ch <- j
	}
	return id, outcome, err
}

// Status reports a job or cached result by ID. The bool is false when the
// ID is entirely unknown (never admitted, record aged out and not cached).
func (q *Queue) Status(id string) (JobStatus, bool) {
	if st, ok := q.jobs.Status(id); ok {
		return st, true
	}
	return q.cachedStatus(id)
}

// Await blocks until job id is terminal or ctx ends, then reports its
// status as Status does (see Table.Await).
func (q *Queue) Await(ctx context.Context, id string) (JobStatus, bool) {
	if st, ok := q.jobs.Await(ctx, id); ok {
		return st, true
	}
	return q.cachedStatus(id)
}

func (q *Queue) cachedStatus(id string) (JobStatus, bool) {
	if q.cache.Contains(id) {
		return JobStatus{ID: id, State: StateDone, Cached: true}, true
	}
	return JobStatus{}, false
}

// Result returns the encoded result bytes for a done job (served from the
// cache, where completed jobs store their bytes).
func (q *Queue) Result(id string) ([]byte, bool) {
	return q.cache.Peek(id)
}

// Stats snapshots the queue counters.
func (q *Queue) Stats() QueueStats { return q.jobs.Stats() }

// LatencySnapshot summarises the per-protocol job latency histograms in
// protocol-name order.
func (q *Queue) LatencySnapshot() []LatencyStats { return q.jobs.LatencySnapshot() }

// DrainReport summarises a graceful shutdown.
type DrainReport struct {
	// Completed and Failed count jobs that reached a measured terminal
	// state during the drain window; Dropped counts work abandoned at the
	// deadline (queued jobs never started plus aborted in-flight runs).
	Completed, Failed, Dropped int64
	// DeadlineExceeded is true when the drain deadline forced aborts.
	DeadlineExceeded bool
}

// Drain performs graceful shutdown (see Table.Drain): admission stops
// immediately (Submit returns ErrDraining), queued and running jobs get up
// to timeout to finish, and at the deadline the workers are cancelled —
// running simulations abort at their next runner chunk boundary — and the
// remaining work is reported as dropped.
func (q *Queue) Drain(timeout time.Duration) DrainReport {
	return q.jobs.Drain(timeout, func() {
		q.cancel()
		q.wg.Wait()
	}, "dropped: server shut down before the job started")
}

// worker executes jobs one at a time via the runner until the queue is
// cancelled (drain). Each worker owns one long-lived simulation arena
// reused across its job stream — the per-job network construction cost
// disappears after the first build, and the arena reuse contract keeps
// results byte-identical to fresh builds however the previous job ended
// (done, failed, aborted at the deadline).
func (q *Queue) worker() {
	defer q.wg.Done()
	arena := wrtring.NewArena()
	for {
		var j *Job
		select {
		case <-q.ctx.Done():
			return
		case j = <-q.ch:
		}
		if q.ctx.Err() != nil {
			return // the drain deadline passed while j sat queued; Drain drops it
		}
		scenario, ok := q.jobs.Start(j)
		if !ok {
			continue
		}
		setup := func(n *wrtring.Network) error {
			if journal := n.Journal(); journal != nil {
				q.jobs.Attach(j, journal)
			}
			return nil
		}
		start := time.Now()
		res := runner.RunJob(q.ctx, runner.Job{Name: j.ID, Scenario: scenario, Setup: setup}, arena)
		o := Outcome{Elapsed: time.Since(start)}
		switch {
		case res.Err != nil && errors.Is(res.Err, context.Canceled):
			o.State, o.Err = StateDropped, "dropped: aborted at drain deadline"
		case res.Err != nil:
			o.State, o.Err = StateFailed, res.Err.Error()
		default:
			data, err := marshalResult(res.Res)
			if err != nil {
				o.State, o.Err = StateFailed, fmt.Sprintf("encoding result: %v", err)
				break
			}
			q.cache.Put(j.ID, data)
			o.State, o.Label = StateDone, scenario.Protocol.String()
		}
		// Finish runs before this worker's next RunJob, so the journal
		// snapshot it takes still holds this job's events.
		q.jobs.Finish(j, o)
	}
}

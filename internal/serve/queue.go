package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/runner"
	"github.com/rtnet/wrtring/internal/stats"
	"github.com/rtnet/wrtring/internal/trace"
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

// Admission errors.
var (
	// ErrQueueFull rejects a submission because the bounded queue is at
	// capacity — the admission-control backpressure signal (HTTP 429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining rejects a submission because shutdown has begun (HTTP 503).
	ErrDraining = errors.New("serve: server is draining")
)

// jobRecord is the queue's view of one admitted scenario. The scenario
// itself is released on terminal transition; finished records keep only
// identity, outcome and timings.
type jobRecord struct {
	id       string
	scenario wrtring.Scenario
	state    State
	errMsg   string
	// done is closed exactly once, by terminal: the push signal held status
	// reads and batch shards wait on instead of polling.
	done chan struct{}
	// journal is the run's trace recorder when the scenario enables Trace;
	// it is written by the simulation goroutine and read concurrently by
	// the HTTP status path (trace.Recorder is internally locked). It is a
	// view into the worker's reusable arena, so terminal() snapshots its
	// total into traceTotal and drops the pointer — the recorder belongs to
	// the worker's NEXT job the moment this one retires.
	journal    *trace.Recorder
	traceTotal uint64
	coalesced  int64
	elapsed    time.Duration
}

// JobStatus is the externally visible snapshot of a job or cached result.
type JobStatus struct {
	ID    string
	State State
	// Cached means the result bytes were served from the cache with no job
	// record (either a fresh-submission hit or a completed job whose record
	// aged out).
	Cached bool
	// Coalesced counts additional submissions that shared this job.
	Coalesced int64
	// TraceEvents is the run's live journal total (scenarios with Trace
	// enabled only) — it advances while the job runs.
	TraceEvents uint64
	Err         string
	Elapsed     time.Duration
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

// LatencyStats summarises one protocol's job-latency histogram.
type LatencyStats struct {
	Protocol   string
	N          int64
	MeanMs     float64
	P50Ms      int64
	P90Ms      int64
	P99Ms      int64
	MaxMs      int64
	Overflowed int64
}

// latencyCapMs bounds the per-protocol latency histograms (samples above
// land in the overflow bucket; see internal/stats).
const latencyCapMs = 120_000

// DefaultFinishedRecords bounds retained terminal job records.
const DefaultFinishedRecords = 4096

// Queue is the bounded, admission-controlled job queue. Submissions are
// content-addressed: a spec identical to an in-flight one coalesces onto
// the existing job, and a spec whose result is cached never becomes a job
// at all. Execution is delegated to internal/runner one job at a time per
// worker, which preserves the per-run determinism contract (each run owns
// its kernel and RNG; worker count changes wall clock, never bytes).
type Queue struct {
	cache    *Cache
	capacity int
	workers  int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu            sync.Mutex
	ch            chan *jobRecord
	draining      bool
	inflight      map[string]*jobRecord // queued or running
	finished      map[string]*jobRecord // terminal, bounded FIFO
	finishedOrder []string
	finishedCap   int

	depth, running int
	admitted       int64
	completed      int64
	failed         int64
	dropped        int64
	rejected       int64
	coalesced      int64
	latency        map[string]*stats.Histogram
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
		cache:       cache,
		capacity:    capacity,
		workers:     workers,
		ctx:         ctx,
		cancel:      cancel,
		ch:          make(chan *jobRecord, capacity),
		inflight:    make(map[string]*jobRecord),
		finished:    make(map[string]*jobRecord),
		finishedCap: DefaultFinishedRecords,
		latency:     make(map[string]*stats.Histogram),
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
	id, err = Key(s)
	if err != nil {
		return "", "", err
	}
	// Admission-path cache lookup: a hit is a completed job for free.
	if _, ok := q.cache.Get(id); ok {
		return id, SubmitCached, nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		q.rejected++
		return id, "", ErrDraining
	}
	if j, ok := q.inflight[id]; ok {
		j.coalesced++
		q.coalesced++
		return id, SubmitCoalesced, nil
	}
	// Second cache check, now under q.mu: a worker publishes result bytes
	// (cache.Put) strictly before it retires the job record (terminal takes
	// q.mu), so a completion that raced the lock-free lookup above is
	// visible here. Without this, a duplicate submission landing in the
	// Put→terminal window re-admits and re-runs a spec whose bytes are
	// already cached. (If the entry was instead *evicted* in that window,
	// the re-admission below is the correct recovery: deterministic re-run,
	// identical bytes.)
	if _, ok := q.cache.GetIfPresent(id); ok {
		return id, SubmitCached, nil
	}
	if q.depth >= q.capacity {
		q.rejected++
		return id, "", ErrQueueFull
	}
	j := &jobRecord{id: id, scenario: s, state: StateQueued, done: make(chan struct{})}
	q.inflight[id] = j
	q.depth++
	q.admitted++
	q.ch <- j // buffered to capacity; never blocks under the depth bound
	return id, SubmitQueued, nil
}

// Status reports a job or cached result by ID. The bool is false when the
// ID is entirely unknown (never admitted, record aged out and not cached).
func (q *Queue) Status(id string) (JobStatus, bool) {
	q.mu.Lock()
	if j, ok := q.inflight[id]; ok {
		st := q.statusLocked(j)
		q.mu.Unlock()
		return st, true
	}
	if j, ok := q.finished[id]; ok {
		st := q.statusLocked(j)
		q.mu.Unlock()
		return st, true
	}
	q.mu.Unlock()
	if q.cache.Contains(id) {
		return JobStatus{ID: id, State: StateDone, Cached: true}, true
	}
	return JobStatus{}, false
}

// Await blocks until job id is terminal or ctx ends, then reports its
// status as Status does. A job that is not in flight is answered at once.
// The status is read from the record the wait began on, so it survives the
// record aging out of the finished set in the meantime.
func (q *Queue) Await(ctx context.Context, id string) (JobStatus, bool) {
	q.mu.Lock()
	j, ok := q.inflight[id]
	q.mu.Unlock()
	if !ok {
		return q.Status(id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.statusLocked(j), true
}

func (q *Queue) statusLocked(j *jobRecord) JobStatus {
	st := JobStatus{
		ID: j.id, State: j.state, Coalesced: j.coalesced,
		Err: j.errMsg, Elapsed: j.elapsed,
	}
	// Reading the journal total while the simulation goroutine records is
	// the concurrent path trace.Recorder's internal lock exists for. After
	// the terminal transition the pointer is gone (the arena-owned recorder
	// now serves the worker's next job) and the frozen snapshot stands in.
	if j.journal != nil {
		st.TraceEvents = j.journal.Total()
	} else {
		st.TraceEvents = j.traceTotal
	}
	return st
}

// Result returns the encoded result bytes for a done job (served from the
// cache, where completed jobs store their bytes).
func (q *Queue) Result(id string) ([]byte, bool) {
	return q.cache.Peek(id)
}

// Stats snapshots the queue counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Depth: q.depth, Running: q.running, Draining: q.draining,
		Admitted: q.admitted, Completed: q.completed, Failed: q.failed,
		Dropped: q.dropped, Rejected: q.rejected, Coalesced: q.coalesced,
	}
}

// LatencySnapshot summarises the per-protocol job latency histograms in
// protocol-name order.
func (q *Queue) LatencySnapshot() []LatencyStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	names := make([]string, 0, len(q.latency))
	for name := range q.latency {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]LatencyStats, 0, len(names))
	for _, name := range names {
		h := q.latency[name]
		out = append(out, LatencyStats{
			Protocol: name, N: h.N(), MeanMs: h.Mean(),
			P50Ms: h.Quantile(0.50), P90Ms: h.Quantile(0.90), P99Ms: h.Quantile(0.99),
			MaxMs: h.Max(), Overflowed: h.Overflowed(),
		})
	}
	return out
}

// DrainReport summarises a graceful shutdown.
type DrainReport struct {
	// Completed and Failed count jobs that reached a measured terminal
	// state during the drain window; Dropped counts work abandoned at the
	// deadline (queued jobs never started plus aborted in-flight runs).
	Completed, Failed, Dropped int64
	// DeadlineExceeded is true when the drain deadline forced aborts.
	DeadlineExceeded bool
}

// Drain performs graceful shutdown: admission stops immediately (Submit
// returns ErrDraining), queued and running jobs get up to timeout to
// finish, and at the deadline the remaining work is cancelled — running
// simulations abort at their next runner chunk boundary — and reported as
// dropped. Drain is idempotent; concurrent calls share one shutdown and
// all block until it completes.
func (q *Queue) Drain(timeout time.Duration) DrainReport {
	q.mu.Lock()
	already := q.draining
	if !already {
		q.draining = true
		close(q.ch) // Submit holds q.mu and checks draining, so no send can race this close
	}
	before := QueueStats{Completed: q.completed, Failed: q.failed, Dropped: q.dropped}
	q.mu.Unlock()

	workersDone := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(workersDone)
	}()
	deadlineExceeded := false
	select {
	case <-workersDone:
	case <-time.After(timeout):
		deadlineExceeded = true
		q.cancel() // abort in-flight runs; workers mark remaining jobs dropped
		<-workersDone
	}
	q.cancel()

	q.mu.Lock()
	defer q.mu.Unlock()
	if already {
		// A concurrent Drain already accounted the window; report totals.
		before = QueueStats{}
	}
	return DrainReport{
		Completed:        q.completed - before.Completed,
		Failed:           q.failed - before.Failed,
		Dropped:          q.dropped - before.Dropped,
		DeadlineExceeded: deadlineExceeded,
	}
}

// worker executes jobs one at a time via the runner until the queue is
// closed (drain) or the context is cancelled (drain deadline). Each worker
// owns one long-lived simulation arena reused across its job stream — the
// per-job network construction cost disappears after the first build, and
// the arena reuse contract keeps results byte-identical to fresh builds
// however the previous job ended (done, failed, aborted at the deadline).
func (q *Queue) worker() {
	defer q.wg.Done()
	arena := wrtring.NewArena()
	for j := range q.ch {
		if q.ctx.Err() != nil {
			// Drain deadline passed while this job sat queued.
			q.terminal(j, StateDropped, "dropped: server shut down before the job started", 0, nil)
			continue
		}
		q.mu.Lock()
		j.state = StateRunning
		q.depth--
		q.running++
		scenario := j.scenario
		q.mu.Unlock()

		setup := func(n *wrtring.Network) error {
			if journal := n.Journal(); journal != nil {
				q.mu.Lock()
				j.journal = journal
				q.mu.Unlock()
			}
			return nil
		}
		start := time.Now()
		res := runner.RunJob(q.ctx, runner.Job{Name: j.id, Scenario: scenario, Setup: setup}, arena)
		elapsed := time.Since(start)

		switch {
		case res.Err != nil && errors.Is(res.Err, context.Canceled):
			q.terminal(j, StateDropped, "dropped: aborted at drain deadline", elapsed, nil)
		case res.Err != nil:
			q.terminal(j, StateFailed, res.Err.Error(), elapsed, nil)
		default:
			data, err := marshalResult(res.Res)
			if err != nil {
				q.terminal(j, StateFailed, fmt.Sprintf("encoding result: %v", err), elapsed, nil)
				continue
			}
			q.cache.Put(j.id, data)
			q.terminal(j, StateDone, "", elapsed, &scenario)
		}
	}
}

// terminal moves a job to a terminal state and its record to the bounded
// finished set, releasing the scenario payload.
func (q *Queue) terminal(j *jobRecord, state State, errMsg string, elapsed time.Duration, done *wrtring.Scenario) {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch j.state {
	case StateQueued:
		q.depth--
	case StateRunning:
		q.running--
	}
	j.state = state
	j.errMsg = errMsg
	j.elapsed = elapsed
	j.scenario = wrtring.Scenario{}
	// Freeze the trace count and release the recorder: it lives in the
	// worker's arena and will be reset for the next job, so holding the
	// pointer past this point would let Status read a different run's
	// journal. terminal runs before the worker's next RunJob, so the
	// snapshot is taken while the recorder still holds this job's events.
	if j.journal != nil {
		j.traceTotal = j.journal.Total()
		j.journal = nil
	}
	switch state {
	case StateDone:
		q.completed++
	case StateFailed:
		q.failed++
	case StateDropped:
		q.dropped++
	}
	if done != nil {
		name := done.Protocol.String()
		h, ok := q.latency[name]
		if !ok {
			h = stats.NewHistogram(latencyCapMs)
			q.latency[name] = h
		}
		h.Add(elapsed.Milliseconds())
	}
	delete(q.inflight, j.id)
	close(j.done)
	// A job can retire under an ID that already has a finished record: a
	// duplicate submission re-admitted the spec after its cached result was
	// evicted. Replace the record without a second FIFO entry, otherwise
	// the first trim of the duplicated ID would delete the live record and
	// leave a dangling order entry.
	if _, exists := q.finished[j.id]; !exists {
		q.finishedOrder = append(q.finishedOrder, j.id)
	}
	q.finished[j.id] = j
	for len(q.finishedOrder) > q.finishedCap {
		old := q.finishedOrder[0]
		q.finishedOrder = q.finishedOrder[1:]
		delete(q.finished, old)
	}
}

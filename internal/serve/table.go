package serve

import (
	"context"
	"sort"
	"sync"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/stats"
	"github.com/rtnet/wrtring/internal/trace"
)

// This file is the job table both execution engines run on: Queue, which
// simulates on local workers, and cluster.Coordinator, which dispatches to
// a worker fleet. The table owns everything about a job that does not
// depend on where it runs: the record and the bounded set of finished
// ones, draining and coalescing, the conservation counters, the
// exactly-once terminal transition and its done signal, Status and Await
// (the held status reads of both daemons), the latency histograms and the
// drain protocol. An engine brings only its admission gate and the
// executor that drives each admitted job to Finish.
//
// Lock order: an engine's own lock (Coordinator.mu) is taken before
// Table.mu, and Table.mu before Cache.mu (the queue's gate reads the cache
// under the table lock). The gate is the only code that runs under
// Table.mu without belonging to this file: it must run there, because its
// bound checks and the admission they allow have to be one step.

// Job is the table's record of one admitted spec. The table guards every
// field except Attempts; ID is immutable.
type Job struct {
	ID string
	// Attempts counts the coordinator's failed dispatches of the job. Only
	// the dispatcher currently holding the job reads or writes it.
	Attempts int

	// worker names the fleet member the job is assigned to (coordinator
	// jobs only): once done, the cache shard that holds the result.
	worker   string
	scenario wrtring.Scenario // released at the terminal transition
	state    State
	// done is closed exactly once, by finishLocked: the push signal held
	// status reads, batch shards and Drain wait on instead of polling.
	done chan struct{}
	// journal is the run's trace recorder when the scenario enables Trace;
	// the simulation goroutine writes it while Status reads it
	// (trace.Recorder is internally locked). It is a view into the queue
	// worker's reusable arena, so the terminal transition snapshots its
	// total into traceTotal and drops the pointer: the recorder belongs to
	// the worker's next job the moment this one retires.
	journal    *trace.Recorder
	traceTotal uint64
	coalesced  int64
	cached     bool
	errMsg     string
	elapsed    time.Duration
}

// Outcome is how an executor reports a job's end to Finish.
type Outcome struct {
	// State is StateDone, StateFailed or StateDropped.
	State   State
	Err     string
	Elapsed time.Duration
	// Label names the latency histogram a done job is recorded in (the
	// queue's protocol, the coordinator's worker); "" records nothing.
	Label string
	// Cached marks a result the executor got from a cache without running
	// anything.
	Cached bool
}

// Gate is an engine's admission policy. Submit asks it under the table
// lock, after the draining and coalescing checks. done reports that the ID
// already has a finished done record; depth counts queued jobs. The gate
// admits by answering SubmitQueued with the worker the job is assigned to
// ("" on a single node), answers without a job by naming another outcome,
// or refuses with an error. It must not block or call the table.
type Gate func(done bool, depth int) (outcome, worker string, err error)

// Table is the job table. See the file comment.
type Table struct {
	refuse error // Submit's answer once Drain has begun
	stop   sync.Once

	mu          sync.Mutex
	draining    bool
	jobs        map[string]*Job // in flight and finished
	finished    []string        // IDs of finished records, oldest first
	finishedCap int

	queued, running int
	admitted        int64
	completed       int64
	failed          int64
	dropped         int64
	rejected        int64
	coalesced       int64
	latency         map[string]*stats.Histogram
}

// NewTable builds an empty table that keeps the DefaultFinishedRecords
// newest finished records and, once draining, refuses submissions with
// the given error (one that matches ErrDraining).
func NewTable(draining error) *Table {
	return &Table{
		refuse:      draining,
		jobs:        make(map[string]*Job),
		finishedCap: DefaultFinishedRecords,
		latency:     make(map[string]*stats.Histogram),
	}
}

// Submit admits job id. Once draining it refuses; a spec already in flight
// coalesces onto its job; otherwise the gate decides. An admission gets a
// fresh queued record, also when the ID has a finished one (a failed or
// dropped job, or a result since evicted: determinism makes the re-run
// produce the same bytes or the same error). The record is returned for
// the engine to hand to its executor. Every refusal counts as rejected.
func (t *Table) Submit(id string, s wrtring.Scenario, gate Gate) (string, *Job, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.draining {
		t.rejected++
		return "", nil, t.refuse
	}
	prev := t.jobs[id]
	if prev != nil && !prev.state.Terminal() {
		prev.coalesced++
		t.coalesced++
		return SubmitCoalesced, nil, nil
	}
	outcome, worker, err := gate(prev != nil && prev.state == StateDone, t.queued)
	switch {
	case err != nil:
		t.rejected++
		return "", nil, err
	case outcome != SubmitQueued:
		return outcome, nil, nil
	case prev != nil:
		t.unretireLocked(id)
	}
	j := &Job{ID: id, worker: worker, scenario: s, state: StateQueued, done: make(chan struct{})}
	t.jobs[id] = j
	t.queued++
	t.admitted++
	return SubmitQueued, j, nil
}

// Start moves a queued job to running and returns its scenario; false
// means the job is not queued.
func (t *Table) Start(j *Job) (wrtring.Scenario, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j.state != StateQueued {
		return wrtring.Scenario{}, false
	}
	j.state = StateRunning
	t.queued--
	t.running++
	return j.scenario, true
}

// Requeue moves a running job back to queued, assigned to worker: the
// coordinator's redispatch after the job's worker failed it.
func (t *Table) Requeue(j *Job, worker string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j.state != StateRunning {
		return
	}
	j.state = StateQueued
	j.worker = worker
	t.running--
	t.queued++
}

// Attach publishes a running job's trace journal to Status.
func (t *Table) Attach(j *Job, journal *trace.Recorder) {
	t.mu.Lock()
	j.journal = journal
	t.mu.Unlock()
}

// Finish moves a job to its terminal state. The first call wins; a job
// that is already terminal is left as it is.
func (t *Table) Finish(j *Job, o Outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finishLocked(j, o)
}

// finishLocked is the one terminal transition: it updates the counters,
// closes done, releases the scenario and files the record in the finished
// FIFO.
func (t *Table) finishLocked(j *Job, o Outcome) {
	switch j.state {
	case StateQueued:
		t.queued--
	case StateRunning:
		t.running--
	default:
		return
	}
	j.state, j.errMsg, j.elapsed, j.cached = o.State, o.Err, o.Elapsed, o.Cached
	j.scenario = wrtring.Scenario{}
	if j.journal != nil {
		j.traceTotal = j.journal.Total()
		j.journal = nil
	}
	switch o.State {
	case StateDone:
		t.completed++
		if o.Label != "" {
			h, ok := t.latency[o.Label]
			if !ok {
				h = stats.NewHistogram(latencyCapMs)
				t.latency[o.Label] = h
			}
			h.Add(o.Elapsed.Milliseconds())
		}
	case StateFailed:
		t.failed++
	case StateDropped:
		t.dropped++
	}
	close(j.done)
	t.finished = append(t.finished, j.ID)
	for len(t.finished) > t.finishedCap {
		delete(t.jobs, t.finished[0])
		t.finished = t.finished[1:]
	}
}

// unretireLocked removes a finished record's FIFO entry ahead of its ID's
// re-admission, so the FIFO never holds an ID twice and never ages out the
// new record in the old one's place.
func (t *Table) unretireLocked(id string) {
	for i, old := range t.finished {
		if old == id {
			t.finished = append(t.finished[:i], t.finished[i+1:]...)
			return
		}
	}
}

// Status reports job id's record; false when the table has none.
func (t *Table) Status(id string) (JobStatus, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return t.statusLocked(j), true
}

// Await blocks until job id is terminal or ctx ends, then reports it as
// Status does. It reads the record the wait began on, so the answer
// survives the record aging out, and a later re-admission of the same ID
// does not answer for this job.
func (t *Table) Await(ctx context.Context, id string) (JobStatus, bool) {
	t.mu.Lock()
	j, ok := t.jobs[id]
	t.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.statusLocked(j), true
}

func (t *Table) statusLocked(j *Job) JobStatus {
	st := JobStatus{
		ID: j.ID, State: j.state, Cached: j.cached, Coalesced: j.coalesced,
		TraceEvents: j.traceTotal, Err: j.errMsg, Elapsed: j.elapsed, Worker: j.worker,
	}
	if j.journal != nil {
		st.TraceEvents = j.journal.Total()
	}
	return st
}

// Stats snapshots the counters.
func (t *Table) Stats() QueueStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return QueueStats{
		Depth: t.queued, Running: t.running, Draining: t.draining,
		Admitted: t.admitted, Completed: t.completed, Failed: t.failed,
		Dropped: t.dropped, Rejected: t.rejected, Coalesced: t.coalesced,
	}
}

// LatencySnapshot summarises the latency histograms in label order.
func (t *Table) LatencySnapshot() []LatencyStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]LatencyStats, 0, len(t.latency))
	for label, h := range t.latency {
		out = append(out, LatencyStats{
			Label: label, N: h.N(), MeanMs: h.Mean(),
			P50Ms: h.Quantile(0.50), P90Ms: h.Quantile(0.90), P99Ms: h.Quantile(0.99),
			MaxMs: h.Max(), Overflowed: h.Overflowed(),
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Label < out[b].Label })
	return out
}

// Drain shuts the table's engine down gracefully. Admission stops at once.
// The jobs in flight get until timeout to reach a terminal state; then
// stop halts the engine, which must leave no executor running, and every
// job still in flight is marked dropped with reason. The conservation law
// admitted = completed + failed + dropped holds on return. Drain is
// idempotent: concurrent calls share one stop and all return after it.
func (t *Table) Drain(timeout time.Duration, stop func(), reason string) DrainReport {
	t.mu.Lock()
	already := t.draining
	t.draining = true
	completed, failed, dropped := t.completed, t.failed, t.dropped
	var outstanding []chan struct{}
	for _, j := range t.jobs {
		if !j.state.Terminal() {
			outstanding = append(outstanding, j.done)
		}
	}
	t.mu.Unlock()

	deadline := time.NewTimer(timeout)
	exceeded := false
wait:
	for _, done := range outstanding {
		select {
		case <-done:
		case <-deadline.C:
			exceeded = true
			break wait
		}
	}
	deadline.Stop()
	t.stop.Do(stop)

	t.mu.Lock()
	defer t.mu.Unlock()
	for _, j := range t.jobs {
		if !j.state.Terminal() {
			t.finishLocked(j, Outcome{State: StateDropped, Err: reason})
		}
	}
	if already {
		// A concurrent Drain already accounted the window; report totals.
		completed, failed, dropped = 0, 0, 0
	}
	return DrainReport{
		Completed:        t.completed - completed,
		Failed:           t.failed - failed,
		Dropped:          t.dropped - dropped,
		DeadlineExceeded: exceeded,
	}
}

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/rtnet/wrtring/internal/httpx"
	"github.com/rtnet/wrtring/sweep"
)

// This file is the batch subsystem: server-side expansion of a sweep.Grid
// (or an index subset of one) into content-addressed shards, fed to
// whatever execution engine the server runs on and streamed back as each
// shard completes. Batches owns what does not depend on the engine: the
// shard table and its conservation counters, retention, cancel, drain and
// the result stream. The engine brings only the feeder (BatchBackend): the
// queue admits one shard at a time into its job table (Queue.Feed below),
// and cluster.Coordinator sends each hash-ring owner one sub-batch. Every
// point expands through the same sweep.Grid.PointAt the local CLIs use, so
// a batch is provably the same point set, in the same order, as the sweep
// a client would have built — and because every shard is content
// addressed, resubmitting a grid whose results are cached completes
// without running a single new simulation.

// BatchBackend is the engine half of a batch.
type BatchBackend interface {
	// Feed drives every shard of b to a terminal state through b.Retire.
	// It runs on a goroutine of its own, one per batch, and returns once
	// nothing it started for b is left running. When b.FeedContext ends
	// (cancel, drain) it starts no new work and retires the shards it never
	// handed on; when b.Context ends (a drain deadline: the manager has
	// dropped every shard still running) it returns promptly.
	Feed(b *Batch)
	// ShardResult reads the bytes of a completed shard that the batch does
	// not hold: id is its job ID, worker the fleet member that ran it (""
	// on a single node).
	ShardResult(ctx context.Context, id, worker string) (json.RawMessage, error)
}

// Batch admission errors.
var (
	// ErrBatchTooLarge rejects a grid whose expansion exceeds MaxPoints
	// (HTTP 413).
	ErrBatchTooLarge = errors.New("serve: grid expands past the batch point limit")
	// ErrTooManyBatches rejects a new batch while every retained slot holds
	// a still-running batch (HTTP 429).
	ErrTooManyBatches = errors.New("serve: too many running batches")
)

// Batch limits.
const (
	// DefaultMaxBatchPoints bounds one grid's expansion unless
	// BatchOptions.MaxPoints says otherwise.
	DefaultMaxBatchPoints = 100_000
	// DefaultMaxBatches bounds retained batches, running + finished.
	// Finished batches age out FIFO past it.
	DefaultMaxBatches = 64
	// DefaultBatchPoll paces the feeder's retry of a shard the engine
	// turned away with ErrQueueFull. Shard completion is not polled: each
	// admitted shard waits on its job's terminal signal.
	DefaultBatchPoll = 10 * time.Millisecond
	// batchHeadroom keeps part of a queue free of batch shards: the queue's
	// feeder admits a shard only while fewer than capacity −
	// capacity/batchHeadroom jobs wait (224 of the default 256), so a
	// single run sent during a sweep is admitted at once rather than
	// meeting a queue the feeder keeps full.
	batchHeadroom = 8
)

// BatchOptions parameterise a Batches manager.
type BatchOptions struct {
	Backend BatchBackend
	// MaxPoints bounds one batch's expansion (<= 0: DefaultMaxBatchPoints).
	MaxPoints int64
	// Logf receives operational events (nil: log.Printf).
	Logf func(format string, args ...any)
}

// Batches manages the server's batch set: creation, retention, cancel and
// drain. Both daemons own exactly one.
type Batches struct {
	opts BatchOptions
	wg   sync.WaitGroup // one count per running feeder

	mu       sync.Mutex
	draining bool
	seq      int64
	byID     map[string]*Batch
	order    []string // creation order, for FIFO retention
	created  int64
}

// NewBatches builds a batch manager over the backend.
func NewBatches(opts BatchOptions) *Batches {
	if opts.MaxPoints <= 0 {
		opts.MaxPoints = DefaultMaxBatchPoints
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	return &Batches{opts: opts, byID: make(map[string]*Batch)}
}

// batchShard is the per-point record. The scenario itself is never retained:
// a feeder re-derives it from the grid (PointAt) when it needs it.
type batchShard struct {
	name     string
	jobID    string
	status   string // "pending" | "queued" | terminal: completed|failed|dropped|rejected
	cacheHit bool
	errMsg   string
	// worker is the fleet member that completed the shard, and result its
	// bytes while the batch holds them (see ShardOutcome.Result).
	worker string
	result json.RawMessage
}

// Shard status strings (terminal ones appear in BatchResultLine.Status).
const (
	shardPending   = "pending"
	shardQueued    = "queued"
	ShardCompleted = "completed"
	ShardFailed    = "failed"
	ShardDropped   = "dropped"
	ShardRejected  = "rejected"
)

// ShardOutcome is how a feeder reports a shard's end to Batch.Retire.
type ShardOutcome struct {
	// Status is ShardCompleted, ShardFailed, ShardDropped or ShardRejected.
	Status string
	Err    string
	// CacheHit marks a completed shard the engine answered from a cache.
	CacheHit bool
	// Result is a completed shard's bytes, when the feeder has them. The
	// batch holds them until a result stream has written them, or until the
	// batch has finished with no stream open; later readers get the bytes
	// through BatchBackend.ShardResult.
	Result json.RawMessage
	// Worker names the fleet member that ran the shard ("" on a single
	// node).
	Worker string
}

// Batch is one submitted grid: its shard table, counters and the wake
// channel streamers block on. Slot k of the table is grid point Index(k).
type Batch struct {
	id      string
	grid    sweep.Grid
	indices []int64 // the grid positions the batch runs, ascending; nil: all
	total   int64
	start   time.Time

	// feed ends when feeding must stop (cancel, drain); ctx, its parent,
	// when the drain deadline passes. Both carry the request ID of the
	// POST that created the batch.
	ctx, feed         context.Context
	abort, cancelFeed context.CancelFunc

	mu        sync.Mutex
	wake      chan struct{}
	shards    []batchShard
	doneOrder []int // slots in terminal order — the stream replay log
	elapsed   time.Duration
	readers   int // open result streams

	admitted  int64 // shards accepted by the engine
	cacheHits int64 // shards answered from a cache
	coalesced int64 // shards folded onto an identical in-flight job
	completed int64 // includes cacheHits
	failed    int64
	dropped   int64
	rejected  int64
	cancelled bool
}

// ID returns the batch's identifier.
func (b *Batch) ID() string { return b.id }

// Grid returns the batch's grid spec.
func (b *Batch) Grid() sweep.Grid { return b.grid }

// Len returns the shard count (Expanded).
func (b *Batch) Len() int { return len(b.shards) }

// Index returns the grid position of shard slot k.
func (b *Batch) Index(k int) int64 {
	if b.indices == nil {
		return int64(k)
	}
	return b.indices[k]
}

// Context ends when a drain deadline abandons the batch; a feeder makes its
// calls under it. It carries the creating request's ID (httpx).
func (b *Batch) Context() context.Context { return b.ctx }

// FeedContext ends when feeding must stop: the batch was cancelled or the
// server is draining.
func (b *Batch) FeedContext() context.Context { return b.feed }

// Create admits one batch request and starts its feeder. The request must
// already be validated (ParseBatchRequest does); ctx contributes only its
// request ID, which the feeder's calls carry.
func (bs *Batches) Create(ctx context.Context, req BatchRequest) (*Batch, error) {
	total := req.Expanded()
	if total > bs.opts.MaxPoints {
		return nil, fmt.Errorf("%w: %d points > limit %d", ErrBatchTooLarge, total, bs.opts.MaxPoints)
	}
	bs.mu.Lock()
	if bs.draining {
		bs.mu.Unlock()
		return nil, ErrDraining
	}
	if !bs.pruneLocked() {
		bs.mu.Unlock()
		return nil, ErrTooManyBatches
	}
	bs.seq++
	bs.created++
	// The batch outlives the request that created it; it keeps only the
	// request's ID.
	base := context.Background()
	if id := httpx.RequestIDFrom(ctx); id != "" {
		base = httpx.WithRequestID(base, id)
	}
	b := &Batch{
		id:      fmt.Sprintf("b-%d", bs.seq),
		grid:    req.Grid,
		indices: req.Indices,
		total:   total,
		start:   time.Now(),
		wake:    make(chan struct{}),
		shards:  make([]batchShard, total),
	}
	b.ctx, b.abort = context.WithCancel(base)
	b.feed, b.cancelFeed = context.WithCancel(b.ctx)
	for i := range b.shards {
		b.shards[i].status = shardPending
	}
	bs.byID[b.id] = b
	bs.order = append(bs.order, b.id)
	bs.mu.Unlock()

	bs.wg.Add(1)
	go bs.run(b)
	return b, nil
}

// run is a batch's feeder goroutine.
func (bs *Batches) run(b *Batch) {
	defer bs.wg.Done()
	bs.opts.Backend.Feed(b)
}

// pruneLocked ages finished batches out FIFO down to the retention bound.
// It reports false when the bound cannot be met because every retained
// batch is still running.
func (bs *Batches) pruneLocked() bool {
	for len(bs.order) >= DefaultMaxBatches {
		evicted := false
		for i, id := range bs.order {
			if b := bs.byID[id]; b.finished() {
				bs.order = append(bs.order[:i], bs.order[i+1:]...)
				delete(bs.byID, id)
				evicted = true
				break
			}
		}
		if !evicted {
			return false
		}
	}
	return true
}

// Get looks a batch up by ID.
func (bs *Batches) Get(id string) (*Batch, bool) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b, ok := bs.byID[id]
	return b, ok
}

// Cancel stops a batch's feeder: shards not yet handed to the engine are
// rejected, and shards already admitted drain to their terminal states (the
// engine runs them regardless — a coalesced submitter may still want the
// result). It reports false for an unknown ID.
func (bs *Batches) Cancel(id string) bool {
	b, ok := bs.Get(id)
	if !ok {
		return false
	}
	b.mu.Lock()
	b.cancelled = true
	b.mu.Unlock()
	b.cancelFeed()
	return true
}

// Drain stops batch creation, stops every feeder and waits up to timeout
// for the admitted shards to retire. On a single node call it after the
// queue's own Drain, which leaves every job terminal. At the deadline every
// shard still running is dropped and the feeders are abandoned (their
// Context ends), so the per-batch conservation law
// expanded = completed + failed + dropped + rejected holds on return. It
// reports false when the deadline passed.
func (bs *Batches) Drain(timeout time.Duration) bool {
	bs.mu.Lock()
	bs.draining = true
	batches := make([]*Batch, 0, len(bs.byID))
	for _, b := range bs.byID {
		b.cancelFeed()
		batches = append(batches, b)
	}
	bs.mu.Unlock()
	done := make(chan struct{})
	go func() {
		bs.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
	}
	for _, b := range batches {
		b.dropRemaining("dropped: server shut down before the shard finished")
	}
	<-done
	return false
}

// BatchesStats is a point-in-time snapshot of the manager.
type BatchesStats struct {
	Created int64
	Active  int // retained batches still running
}

// Stats snapshots the manager counters.
func (bs *Batches) Stats() BatchesStats {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	st := BatchesStats{Created: bs.created}
	for _, b := range bs.byID {
		if !b.finished() {
			st.Active++
		}
	}
	return st
}

// Label records shard k's point name and job ID.
func (b *Batch) Label(k int, name, jobID string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.shards[k].name, b.shards[k].jobID = name, jobID
}

// Admit counts shard k as accepted by the engine, once; coalesced marks a
// shard folded onto an identical in-flight job.
func (b *Batch) Admit(k int, coalesced bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.shards[k].status == shardPending {
		b.shards[k].status = shardQueued
		b.admitted++
		if coalesced {
			b.coalesced++
		}
	}
}

// Retire moves shard k to its terminal state and wakes streamers. The first
// call wins; later ones for the same shard are ignored.
func (b *Batch) Retire(k int, o ShardOutcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.retireLocked(k, o)
}

// retireLocked is Retire under b.mu. The last shard to retire stamps the
// batch's elapsed time and, with no stream open, drops the held bytes.
func (b *Batch) retireLocked(k int, o ShardOutcome) {
	sh := &b.shards[k]
	if terminalShard(sh.status) {
		return
	}
	sh.status, sh.errMsg, sh.worker = o.Status, o.Err, o.Worker
	sh.cacheHit = sh.cacheHit || o.CacheHit
	switch o.Status {
	case ShardCompleted:
		b.completed++
		sh.result = o.Result
		if o.CacheHit {
			b.cacheHits++
		}
	case ShardFailed:
		b.failed++
	case ShardDropped:
		b.dropped++
	default:
		sh.status = ShardRejected
		b.rejected++
	}
	b.doneOrder = append(b.doneOrder, k)
	if b.finishedLocked() {
		b.elapsed = time.Since(b.start)
		b.releaseLocked()
	}
	b.wakeLocked()
}

// dropRemaining retires every shard still running as dropped and abandons
// the feeder.
func (b *Batch) dropRemaining(reason string) {
	b.mu.Lock()
	for k := range b.shards {
		b.retireLocked(k, ShardOutcome{Status: ShardDropped, Err: reason})
	}
	b.mu.Unlock()
	b.abort()
}

// releaseLocked drops the held result bytes of a finished batch that no
// stream is reading; readers get them from the engine from then on.
func (b *Batch) releaseLocked() {
	if b.readers > 0 || !b.finishedLocked() {
		return
	}
	for k := range b.shards {
		b.shards[k].result = nil
	}
}

func terminalShard(status string) bool {
	switch status {
	case ShardCompleted, ShardFailed, ShardDropped, ShardRejected:
		return true
	}
	return false
}

// wakeLocked broadcasts to every streamer blocked on the wake channel.
func (b *Batch) wakeLocked() {
	close(b.wake)
	b.wake = make(chan struct{})
}

// finished reports whether every shard is terminal.
func (b *Batch) finished() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.finishedLocked()
}

func (b *Batch) finishedLocked() bool {
	return b.completed+b.failed+b.dropped+b.rejected == b.total
}

// Status snapshots the batch for GET /v1/batches/{id}.
func (b *Batch) Status() BatchStatusResponse {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BatchStatusResponse{
		ID:        b.id,
		Status:    "running",
		Expanded:  b.total,
		Admitted:  b.admitted,
		CacheHits: b.cacheHits,
		Coalesced: b.coalesced,
		Completed: b.completed,
		Failed:    b.failed,
		Dropped:   b.dropped,
		Rejected:  b.rejected,
	}
	elapsed := b.elapsed
	if elapsed == 0 {
		elapsed = time.Since(b.start)
	}
	st.ElapsedMs = elapsed.Milliseconds()
	switch {
	case b.cancelled:
		st.Status = "cancelled"
	case b.finishedLocked():
		st.Status = "done"
	}
	return st
}

// shardLine is one terminal shard as a stream writes it, plus the worker
// that holds its bytes when the batch no longer does.
type shardLine struct {
	BatchResultLine
	worker string
}

// lineAt returns the cursor-th terminal shard as a result line, handing
// over the bytes the batch holds for it. When the cursor is caught up, it
// returns the wake channel to block on and whether the stream is complete.
func (b *Batch) lineAt(cursor int) (line shardLine, ok bool, wake <-chan struct{}, finished bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if cursor < len(b.doneOrder) {
		k := b.doneOrder[cursor]
		sh := &b.shards[k]
		line = shardLine{BatchResultLine{
			Index: b.Index(k), Name: sh.name, ID: sh.jobID, Status: sh.status,
			CacheHit: sh.cacheHit, Error: sh.errMsg, Result: sh.result,
		}, sh.worker}
		sh.result = nil
		return line, true, nil, false
	}
	return shardLine{}, false, b.wake, b.finishedLocked()
}

// attach and detach bracket a result stream; the last stream to leave a
// finished batch drops the bytes it still holds.
func (b *Batch) attach() {
	b.mu.Lock()
	b.readers++
	b.mu.Unlock()
}

func (b *Batch) detach() {
	b.mu.Lock()
	b.readers--
	b.releaseLocked()
	b.mu.Unlock()
}

// ---------------------------------------------------------- queue feeder

// Feed is the queue's batch feeder: it walks the batch's points in order
// and admits one shard at a time, leaving the queue's headroom
// (batchHeadroom) to single runs. Backpressure (ErrQueueFull) backs off
// DefaultBatchPoll and retries the same shard — the server-side analogue
// of a client honouring Retry-After — so a grid larger than the queue
// feeds at exactly the rate the queue drains. Closed admission
// (ErrDraining) and a stopped feed reject the current and every remaining
// shard. Feed returns when every admitted shard has retired.
func (q *Queue) Feed(b *Batch) {
	ws := &shardWaiters{byJob: make(map[string]*shardWaiter)}
	defer ws.wg.Wait()
	for k := 0; k < b.Len(); k++ {
		pt, err := b.Grid().PointAt(b.Index(k))
		if err != nil { // unreachable on a validated grid; account, don't wedge
			b.Retire(k, ShardOutcome{Status: ShardRejected, Err: err.Error()})
			continue
		}
		b.Label(k, pt.Name, "")
		if err := q.feedShard(b, k, pt, ws); err != nil {
			// Feeding is over (drain or cancel): reject this shard and the rest.
			for rest := k; rest < b.Len(); rest++ {
				if rest > k {
					if p, perr := b.Grid().PointAt(b.Index(rest)); perr == nil {
						b.Label(rest, p.Name, "")
					}
				}
				b.Retire(rest, ShardOutcome{Status: ShardRejected, Err: err.Error()})
			}
			return
		}
	}
}

// feedShard admits shard k, retrying through backpressure. A non-nil
// return means feeding must stop entirely.
func (q *Queue) feedShard(b *Batch, k int, pt sweep.Point, ws *shardWaiters) error {
	limit := q.capacity - q.capacity/batchHeadroom
	for {
		if b.FeedContext().Err() != nil {
			return errors.New("batch cancelled before the shard was submitted")
		}
		id, outcome, err := q.submit(pt.Scenario, limit)
		switch {
		case err == nil:
			b.Label(k, pt.Name, id)
			if outcome == SubmitCached {
				b.Retire(k, ShardOutcome{Status: ShardCompleted, CacheHit: true})
				return nil
			}
			b.Admit(k, outcome == SubmitCoalesced)
			q.awaitShard(b, ws, id, k, outcome == SubmitCoalesced)
			return nil
		case errors.Is(err, ErrDraining):
			return err
		case errors.Is(err, ErrQueueFull):
			select {
			case <-b.FeedContext().Done():
				return errors.New("batch cancelled before the shard was submitted")
			case <-time.After(DefaultBatchPoll):
			}
		default:
			// Per-shard failure (e.g. an unencodable scenario): reject just
			// this shard and keep feeding.
			b.Retire(k, ShardOutcome{Status: ShardRejected, Err: err.Error()})
			return nil
		}
	}
}

// shardWaiters maps each in-flight job one batch waits on to the waiter
// retiring its shards. A point the grid repeats coalesces onto the job an
// earlier shard already waits on and joins that waiter, so waiters stay
// bounded by the queue's in-flight jobs.
type shardWaiters struct {
	wg    sync.WaitGroup
	mu    sync.Mutex
	byJob map[string]*shardWaiter
}

// shardWaiter lists the shards of one batch that wait on one job.
type shardWaiter struct{ shards []int }

// awaitShard has shard k, admitted as job id, retired when the job ends.
func (q *Queue) awaitShard(b *Batch, ws *shardWaiters, id string, k int, coalesced bool) {
	ws.mu.Lock()
	if w, ok := ws.byJob[id]; ok && coalesced {
		w.shards = append(w.shards, k)
		ws.mu.Unlock()
		return
	}
	w := &shardWaiter{shards: []int{k}}
	ws.byJob[id] = w
	ws.mu.Unlock()
	ws.wg.Add(1)
	go func() {
		defer ws.wg.Done()
		q.awaitShards(b, ws, id, w)
	}()
}

// awaitShards retires a waiter's shards when their job's terminal signal
// fires, so tracking costs one wakeup per completion. It outlives
// cancellation on purpose: admitted work runs regardless, and the status
// endpoint keeps reporting partial results while it drains. Return is
// guaranteed because every admitted job reaches a terminal state — the
// queue's Drain marks survivors dropped — and a job whose record vanished
// entirely is accounted failed here.
func (q *Queue) awaitShards(b *Batch, ws *shardWaiters, id string, w *shardWaiter) {
	st, ok := q.Await(b.Context(), id)
	o := ShardOutcome{Status: ShardDropped, Err: st.Err, CacheHit: st.Cached}
	switch {
	case !ok:
		o.Status, o.Err = ShardFailed, "job record lost (evicted before completion was observed); resubmit the batch"
	case st.State == StateDone:
		o.Status = ShardCompleted
	case st.State == StateFailed:
		o.Status = ShardFailed
	}
	ws.mu.Lock()
	if ws.byJob[id] == w {
		delete(ws.byJob, id)
	}
	shards := w.shards
	ws.mu.Unlock()
	for _, k := range shards {
		b.Retire(k, o)
	}
}

// ShardResult reads a done job's bytes from the cache without touching its
// hit counters.
func (q *Queue) ShardResult(_ context.Context, id, _ string) (json.RawMessage, error) {
	if data, ok := q.Result(id); ok {
		return data, nil
	}
	return nil, errors.New("result evicted from cache; resubmit the scenario to recompute")
}

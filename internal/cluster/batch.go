package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"github.com/rtnet/wrtring/internal/serve"
)

// The coordinator as a batch backend. serve.Batches keeps the client's
// stream, status, cancel, drain and retention; the coordinator supplies the
// feeder. It keys every point once, groups the points by live hash-ring
// owner, and sends each owner one worker-side batch: the same grid plus the
// indices of the points that owner holds. Each owner's NDJSON stream already
// carries the result bytes, so a batch costs two requests per owner — the
// POST and the results stream — whatever its size, and no shard enters the
// coordinator's job table.
// The owners' own batch engines do admission, coalescing, cache dedupe and
// backpressure, so a grid resubmitted to the cluster is answered from the
// fleet's composed cache without running a single new simulation.
//
// Failover follows dispatch: a failed POST, a 503 or a broken stream ejects
// the owner, and the shards it did not finish — with any line an owner
// dropped or rejected — go to the next live worker in each key's ring
// sequence, one sub-batch per target, within the same per-shard attempt
// budget (attemptsPerWorker × fleet size). Determinism keeps the bytes
// identical wherever a shard runs. A stream has no timeout; it also ends
// when the prober ejects its owner, so an owner that hangs with its
// connection open is failed over like one that broke it.
//
// Each completed key is remembered with the worker that holds it
// (doneKeys), so a later single run of the key is answered cached without
// a dispatch, as it would be from a done job record.

// pendingShard is a shard a sub-batch left unfinished, with the terminal
// state it takes if it is not re-sent.
type pendingShard struct {
	slot   int
	status string
	err    string
}

// subResult is how one sub-batch ended.
type subResult struct {
	from   *worker
	retry  []pendingShard
	reason string
}

// batchFeed is one batch's feeder state; only the Feed goroutine touches
// attempts.
type batchFeed struct {
	c        *Coordinator
	b        *serve.Batch
	keys     []string
	attempts []int
	running  int
	done     chan subResult
}

// Feed is the coordinator's batch feeder (serve.BatchBackend).
func (c *Coordinator) Feed(b *serve.Batch) {
	f := &batchFeed{c: c, b: b, keys: make([]string, b.Len()),
		attempts: make([]int, b.Len()), done: make(chan subResult)}
	for k := range f.keys {
		pt, err := b.Grid().PointAt(b.Index(k))
		if err == nil {
			f.keys[k], err = serve.Key(pt.Scenario)
		}
		b.Label(k, pt.Name, f.keys[k])
		if err != nil {
			b.Retire(k, serve.ShardOutcome{Status: serve.ShardRejected, Err: err.Error()})
		}
	}
	groups := make(map[*worker][]int)
	var orphans []int
	c.mu.Lock()
	for k, key := range f.keys {
		if key == "" {
			continue
		}
		if w, ok := c.ownerLocked(key); ok {
			groups[w] = append(groups[w], k)
		} else {
			orphans = append(orphans, k)
		}
	}
	c.mu.Unlock()
	for _, k := range orphans {
		b.Retire(k, serve.ShardOutcome{Status: serve.ShardRejected, Err: ErrNoWorkers.Error()})
	}
	f.launchAll(groups)
	for f.running > 0 {
		r := <-f.done
		f.running--
		f.reroute(r)
	}
}

// launchAll starts one sub-batch per target, in fleet order.
func (f *batchFeed) launchAll(groups map[*worker][]int) {
	for _, w := range f.c.fleet() {
		if slots := groups[w]; len(slots) > 0 {
			slices.Sort(slots)
			f.running++
			go func() { f.done <- f.run(w, slots) }()
		}
	}
}

// reroute re-sends what a sub-batch left unfinished to where moveJob would
// send a single run of the same key (failoverLocked), one sub-batch per
// target. A shard past its attempt budget, or with no live worker left,
// fails. Once feeding has stopped nothing is re-sent: each shard takes the
// state its owner reported.
func (f *batchFeed) reroute(r subResult) {
	b, c := f.b, f.c
	if len(r.retry) == 0 || b.Context().Err() != nil {
		return // nothing left, or the drain deadline already dropped it
	}
	if b.FeedContext().Err() != nil {
		for _, p := range r.retry {
			b.Retire(p.slot, serve.ShardOutcome{Status: p.status, Err: p.err})
		}
		return
	}
	groups := make(map[*worker][]int)
	var failed []pendingShard
	moved := 0
	c.mu.Lock()
	budget := attemptsPerWorker * len(c.order)
	for _, p := range r.retry {
		f.attempts[p.slot]++
		if f.attempts[p.slot] >= budget {
			failed = append(failed, pendingShard{p.slot, serve.ShardFailed,
				fmt.Sprintf("failed after %d dispatch attempts (last: %s)", f.attempts[p.slot], r.reason)})
			continue
		}
		target, away := c.failoverLocked(f.keys[p.slot], r.from)
		if target == nil {
			failed = append(failed, pendingShard{p.slot, serve.ShardFailed, "no live workers (last: " + r.reason + ")"})
			continue
		}
		if away {
			moved++
		}
		groups[target] = append(groups[target], p.slot)
	}
	c.mu.Unlock()
	for _, p := range failed {
		b.Retire(p.slot, serve.ShardOutcome{Status: p.status, Err: p.err})
	}
	c.redispatched.Add(int64(moved))
	if len(groups) > 0 {
		c.logf("cluster: batch %s: re-sending %d shards from %s (%s)",
			b.ID(), len(r.retry)-len(failed), r.from.id, r.reason)
	}
	f.launchAll(groups)
}

// run sends one sub-batch to w and retires every line its stream carries.
// It returns the shards that need another owner. All calls run under the
// batch's Context, which carries the creating request's ID and ends only at
// a drain deadline; a cancel reaches the owner as a DELETE, and the stream
// is read on until the owner's sub-batch finishes or the owner is ejected.
func (f *batchFeed) run(w *worker, slots []int) subResult {
	b, c := f.b, f.c
	ctx := b.Context()
	req := serve.BatchRequest{Grid: b.Grid(), Indices: make([]int64, len(slots))}
	slotOf := make(map[int64]int, len(slots))
	for i, k := range slots {
		req.Indices[i] = b.Index(k)
		slotOf[req.Indices[i]] = k
	}
	unsent := func(reason string) subResult {
		r := subResult{from: w, reason: reason}
		for _, k := range slots {
			r.retry = append(r.retry, pendingShard{k, serve.ShardRejected, reason})
		}
		return r
	}

	var sub *serve.BatchSubmitResponse
	for sub == nil {
		if b.FeedContext().Err() != nil {
			return unsent("batch cancelled before the shard was submitted")
		}
		code, resp, header, err := w.client.CreateBatch(ctx, req)
		switch {
		case ctx.Err() != nil:
			return subResult{}
		case code == 0 || (code == http.StatusAccepted && err != nil):
			c.ejectWorker(w, "batch submit failed: %v", err)
			return unsent("submit failed")
		case code == http.StatusServiceUnavailable:
			c.ejectWorker(w, "worker answered 503 (draining)")
			return unsent("worker draining")
		case code == http.StatusTooManyRequests:
			// The owner retains its maximum of running batches: wait as it
			// asks, then offer the sub-batch again.
			t := time.NewTimer(serve.RetryAfter(header, c.cfg.RetryAfter))
			select {
			case <-b.FeedContext().Done():
			case <-t.C:
			}
			t.Stop()
		case err != nil:
			for _, k := range slots {
				b.Retire(k, serve.ShardOutcome{Status: serve.ShardFailed, Err: "worker refused the sub-batch: " + err.Error()})
			}
			return subResult{}
		default:
			sub = resp
		}
	}
	for _, k := range slots {
		b.Admit(k, false)
	}
	sctx, endStream := context.WithCancel(ctx)
	defer endStream()
	defer context.AfterFunc(w.liveness(), endStream)()
	cancelled := make(chan struct{})
	stop := context.AfterFunc(b.FeedContext(), func() {
		defer close(cancelled)
		// A DELETE that fails leaves the owner feeding; the stream below
		// still ends with its sub-batch, and the lines are final then.
		_, _ = w.client.CancelBatch(sctx, sub.ID)
	})
	defer func() {
		if !stop() {
			<-cancelled
		}
	}()

	var retry []pendingShard
	_, err := w.client.StreamBatchResults(sctx, sub.ID, func(l serve.BatchResultLine) error {
		k, ok := slotOf[l.Index]
		if !ok {
			return fmt.Errorf("line for index %d, which the sub-batch does not hold or already answered", l.Index)
		}
		delete(slotOf, l.Index)
		switch l.Status {
		case serve.ShardCompleted, serve.ShardFailed:
			if l.CacheHit {
				c.remoteCacheHits.Add(1)
			}
			if l.Status == serve.ShardCompleted {
				c.mu.Lock()
				c.batchDone.add(f.keys[k], w.id)
				c.mu.Unlock()
			}
			b.Retire(k, serve.ShardOutcome{Status: l.Status, Err: l.Error, CacheHit: l.CacheHit,
				Result: l.Result, Worker: w.id})
		case serve.ShardDropped, serve.ShardRejected:
			retry = append(retry, pendingShard{k, l.Status, l.Error})
		default:
			b.Retire(k, serve.ShardOutcome{Status: serve.ShardFailed,
				Err: fmt.Sprintf("worker answered unknown shard status %q", l.Status)})
		}
		return nil
	})
	if ctx.Err() != nil {
		return subResult{}
	}
	reason := "owner dropped or rejected shards"
	if err != nil || len(slotOf) > 0 {
		switch {
		case sctx.Err() != nil:
			err = errors.New("owner ejected while its sub-batch ran")
		case err == nil:
			err = fmt.Errorf("stream ended with %d of %d shards unanswered", len(slotOf), len(slots))
		}
		c.ejectWorker(w, "batch stream broken: %v", err)
		reason = "batch stream broken"
		for _, k := range slotOf {
			retry = append(retry, pendingShard{k, serve.ShardDropped, "owner lost mid-batch: " + err.Error()})
		}
	}
	return subResult{from: w, retry: retry, reason: reason}
}

// doneKeys maps each key the coordinator's batches completed to the worker
// holding its result, for the newest serve.DefaultFinishedRecords keys.
// The zero value is empty; the coordinator's mu guards it.
type doneKeys struct {
	owner map[string]string
	fifo  []string // the keys of owner, oldest at next once full
	next  int
}

func (d *doneKeys) add(key, worker string) {
	if _, ok := d.owner[key]; !ok {
		if d.owner == nil {
			d.owner = make(map[string]string)
		}
		if len(d.fifo) < serve.DefaultFinishedRecords {
			d.fifo = append(d.fifo, key)
		} else {
			delete(d.owner, d.fifo[d.next])
			d.fifo[d.next] = key
			d.next = (d.next + 1) % len(d.fifo)
		}
	}
	d.owner[key] = worker
}

// ShardResult reads a completed shard's bytes from the worker that ran it,
// for a stream that finds the batch no longer holding them.
func (c *Coordinator) ShardResult(ctx context.Context, id, workerID string) (json.RawMessage, error) {
	res, err := c.fetchResult(ctx, id, workerID)
	if err != nil {
		return nil, err
	}
	return res.Result, nil
}

// newBatches builds the coordinator's batch manager over itself.
func (c *Coordinator) newBatches() *serve.Batches {
	return serve.NewBatches(serve.BatchOptions{
		Backend:   c,
		MaxPoints: c.cfg.MaxBatchPoints,
		Logf:      c.logf,
	})
}

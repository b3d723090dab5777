package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/rtnet/wrtring/internal/serve"
)

// The coordinator as a batch backend: serve.Batches drives the same Submit
// path as POST /v1/runs (cache-affine dispatch, coalescing, saturation
// backpressure), waits on each shard's terminal signal in the coordinator's
// job table, and proxies result bytes from the owner worker's cache shard.
// Batch shards therefore compose the per-worker caches into one cluster
// cache exactly like single-run traffic does — a grid resubmitted to the
// cluster is answered without running a single new simulation.

// Await blocks until job id is terminal or ctx ends, then reports its
// state; ok is false when the record aged out of the finished FIFO. The
// state is read from the record the wait began on, so a later re-admission
// of the same spec does not answer for this job.
func (c *Coordinator) Await(ctx context.Context, id string) (serve.JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return serve.JobStatus{}, false
	}
	if !j.state.Terminal() {
		c.mu.Unlock()
		select {
		case <-j.done:
		case <-ctx.Done():
		}
		c.mu.Lock()
	}
	return serve.JobStatus{
		ID: id, State: j.state, Cached: j.remoteCached,
		Coalesced: j.coalesced, Err: j.errMsg, Elapsed: j.elapsed,
	}, true
}

// JobResult fetches a done job's result bytes from its owner worker.
func (c *Coordinator) JobResult(ctx context.Context, id string) (json.RawMessage, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	if !ok || j.state != serve.StateDone {
		c.mu.Unlock()
		return nil, fmt.Errorf("job %s is not done on this coordinator", id)
	}
	workerID := j.workerID
	c.mu.Unlock()
	st, err := c.fetchResult(ctx, id, workerID)
	if err != nil {
		return nil, err
	}
	return st.Result, nil
}

// newBatches builds the coordinator's batch manager over itself.
func (c *Coordinator) newBatches() *serve.Batches {
	return serve.NewBatches(serve.BatchOptions{
		Backend:      c,
		MaxPoints:    c.cfg.MaxBatchPoints,
		MaxBatches:   c.cfg.MaxBatches,
		PollInterval: c.cfg.BatchPollInterval,
		// Shard saturation is transient backpressure (the fleet is draining
		// its queues); a dead fleet or a draining coordinator ends feeding.
		Retryable: func(err error) bool { return errors.Is(err, ErrSaturated) },
		Fatal: func(err error) bool {
			return errors.Is(err, ErrDraining) || errors.Is(err, ErrNoWorkers)
		},
		Logf: c.logf,
	})
}

package cluster

import (
	"context"
	"encoding/json"
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
// state (see serve.Table.Await); ok is false when the record aged out of
// the finished FIFO.
func (c *Coordinator) Await(ctx context.Context, id string) (serve.JobStatus, bool) {
	return c.jobs.Await(ctx, id)
}

// JobResult fetches a done job's result bytes from its owner worker.
func (c *Coordinator) JobResult(ctx context.Context, id string) (json.RawMessage, error) {
	st, ok := c.jobs.Status(id)
	if !ok || st.State != serve.StateDone {
		return nil, fmt.Errorf("job %s is not done on this coordinator", id)
	}
	res, err := c.fetchResult(ctx, id, st.Worker)
	if err != nil {
		return nil, err
	}
	return res.Result, nil
}

// newBatches builds the coordinator's batch manager over itself. Shard
// saturation (ErrSaturated) is transient backpressure the feeder retries;
// a dead fleet or a draining coordinator ends feeding.
func (c *Coordinator) newBatches() *serve.Batches {
	return serve.NewBatches(serve.BatchOptions{
		Backend:   c,
		MaxPoints: c.cfg.MaxBatchPoints,
		Logf:      c.logf,
	})
}

package cluster

import (
	"fmt"
	"net/http"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/serve"
)

// saturationRetries bounds same-worker retries when a live worker answers
// 429 (its own queue is full — e.g. shared with direct clients) before the
// job moves to the next ring owner anyway.
const saturationRetries = 8

// runWorker is one dispatcher goroutine bound to a worker: it pulls jobs
// from the worker's channel and drives each to a terminal state — dispatch,
// a held status read, and on any worker failure redispatch to the hash
// ring's next live owner. A dead worker's dispatchers keep running
// precisely so its queued jobs drain into redispatches.
func (c *Coordinator) runWorker(w *worker) {
	defer c.wg.Done()
	for {
		select {
		case <-c.ctx.Done():
			return
		case j := <-w.ch:
			c.dispatch(w, j)
		}
	}
}

// dispatch drives one job on one worker. Determinism is what keeps this
// simple: a job that dies with its worker is re-submitted whole elsewhere
// and the recomputed result is byte-identical, so there is nothing to
// migrate or reconcile — only to re-run.
func (c *Coordinator) dispatch(w *worker, j *serve.Job) {
	scenario, ok := c.jobs.Start(j)
	if !ok {
		return
	}

	if !w.isAlive() {
		c.moveJob(j, w, "owner ejected before dispatch")
		return
	}

	start := time.Now()
	retries := 0
submit:
	if c.ctx.Err() != nil {
		return // drain accounting picks the job up as dropped
	}
	code, resp, err := w.client.SubmitScenarios(c.ctx, []wrtring.Scenario{scenario})
	switch {
	case err != nil:
		if c.ctx.Err() != nil {
			// The coordinator cancelled the call itself (drain deadline).
			// That says nothing about the worker's health and the job is
			// still viable: leave both alone so the drain sweep records the
			// job as dropped work rather than a worker failure.
			return
		}
		c.ejectWorker(w, "submit failed: %v", err)
		c.moveJob(j, w, "submit failed")
		return
	case code == http.StatusServiceUnavailable:
		// The worker is draining; it will stop answering shortly.
		c.ejectWorker(w, "worker answered 503 (draining)")
		c.moveJob(j, w, "worker draining")
		return
	case len(resp.Runs) != 1:
		c.failJob(j, w, "worker returned a malformed submit response", time.Since(start))
		return
	}

	run := resp.Runs[0]
	switch run.Status {
	case serve.SubmitQueued, serve.SubmitCoalesced:
	case serve.SubmitCached:
		// The worker's cache shard already holds this result — the whole
		// point of cache-affine routing — so there is nothing to wait for.
		c.finishJob(j, w, time.Since(start), true)
		return
	case "rejected":
		// The worker's own queue is full (it may serve direct clients too).
		// Honour its backpressure hint a few times, then fail over.
		retries++
		if retries > saturationRetries {
			c.moveJob(j, w, "worker persistently saturated")
			return
		}
		if !c.sleep(c.cfg.RetryAfter) {
			return
		}
		goto submit
	default: // "invalid" or unknown
		c.failJob(j, w, "worker rejected the spec: "+run.Error, time.Since(start))
		return
	}

	// One status read, held on the worker until the job is terminal. The
	// hold asks for half the call timeout so the worker answers first; a
	// non-terminal answer means that wait expired (or the worker is shutting
	// down), and only then does the dispatcher pause and ask again.
	for {
		code, st, err := w.client.StatusWait(c.ctx, j.ID, c.cfg.RequestTimeout/2)
		switch {
		case err != nil:
			if c.ctx.Err() != nil {
				// Self-inflicted cancellation (drain), not a worker fault —
				// see the submit path above.
				return
			}
			c.ejectWorker(w, "status read failed: %v", err)
			c.moveJob(j, w, "status read failed")
			return
		case code == http.StatusNotFound:
			// The record vanished — worker restart lost its memory. Re-run.
			c.moveJob(j, w, "worker lost the job record")
			return
		case code != http.StatusOK:
			c.ejectWorker(w, "status read answered HTTP %d", code)
			c.moveJob(j, w, "status read failed")
			return
		}
		switch st.Status {
		case serve.StateDone.String():
			c.finishJob(j, w, time.Since(start), false)
			return
		case serve.StateFailed.String():
			// A deterministic failure: re-running elsewhere reproduces it.
			c.failJob(j, w, st.Error, time.Since(start))
			return
		case serve.StateDropped.String():
			// The worker drained mid-job; the work itself is still viable.
			c.moveJob(j, w, "worker dropped the job while draining")
			return
		}
		if !c.sleep(c.cfg.PollInterval) {
			return
		}
	}
}

// sleep waits d or until the coordinator shuts down; false means shutdown.
func (c *Coordinator) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// ejectWorker marks a worker dead after a dispatch-path failure, logging
// only on the live→dead transition. The health prober owns readmission.
func (c *Coordinator) ejectWorker(w *worker, format string, args ...any) {
	if w.markDead(c.cfg.HealthInterval) {
		c.logf("cluster: ejecting worker %s: "+format, append([]any{w.id}, args...)...)
	}
}

// moveJob redispatches a job after its current worker failed it: the job
// goes back to queued state on the hash ring's next live owner. When the
// original owner is the only live worker it retries there; when no worker
// is live, or the attempt budget is spent, the job fails.
func (c *Coordinator) moveJob(j *serve.Job, from *worker, reason string) {
	from.dropDepth()
	j.Attempts++
	c.mu.Lock()
	if j.Attempts >= attemptsPerWorker*len(c.order) {
		c.mu.Unlock()
		c.jobs.Finish(j, serve.Outcome{State: serve.StateFailed,
			Err: fmt.Sprintf("failed after %d dispatch attempts (last: %s)", j.Attempts, reason)})
		return
	}
	var target *worker
	for _, id := range c.ring.Sequence(j.ID) {
		if w := c.workers[id]; id != from.id && w.isAlive() {
			target = w
			break
		}
	}
	moved := target != nil
	if target == nil && from.isAlive() {
		target = from // sole live worker: retry in place
	}
	c.mu.Unlock()
	if target == nil {
		c.jobs.Finish(j, serve.Outcome{State: serve.StateFailed, Err: "no live workers (last: " + reason + ")"})
		return
	}
	if moved {
		c.redispatched.Add(1)
	}
	c.jobs.Requeue(j, target.id)
	c.assign(j, target)
	c.logf("cluster: redispatching %s: %s → %s (%s, attempt %d)",
		shortID(j.ID), from.id, target.id, reason, j.Attempts)
}

// finishJob retires a successfully completed job; remoteCached marks one
// the worker answered from its cache shard at submit.
func (c *Coordinator) finishJob(j *serve.Job, w *worker, elapsed time.Duration, remoteCached bool) {
	w.dropDepth()
	if remoteCached {
		c.remoteCacheHits.Add(1)
	}
	c.jobs.Finish(j, serve.Outcome{State: serve.StateDone, Elapsed: elapsed, Label: w.id, Cached: remoteCached})
}

// failJob retires a job that cannot succeed (invalid spec, deterministic
// simulation error, attempts exhausted).
func (c *Coordinator) failJob(j *serve.Job, w *worker, errMsg string, elapsed time.Duration) {
	w.dropDepth()
	c.jobs.Finish(j, serve.Outcome{State: serve.StateFailed, Err: errMsg, Elapsed: elapsed})
}

// healthLoop probes the fleet: live workers get a liveness check every
// HealthInterval; ejected workers are re-probed on an exponential backoff
// (doubling from HealthInterval, capped at probeBackoffMax) and readmitted
// to the ring — which is instant, because the ring itself never changes,
// only the liveness predicate its lookups consult.
func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-ticker.C:
		}
		now := time.Now()
		for _, w := range c.fleet() {
			if !w.isAlive() && !w.probeDue(now) {
				continue
			}
			err := w.client.Healthz(c.ctx)
			if c.ctx.Err() != nil {
				// Drain cancelled the probe mid-flight; don't let the
				// shutdown masquerade as a fleet-wide health failure.
				return
			}
			switch {
			case err == nil && !w.isAlive():
				if w.readmit() {
					c.logf("cluster: readmitting worker %s", w.id)
					// Readmission changes ring ownership back: wake the
					// rebalancer so keys computed elsewhere during the outage
					// come home, and the returnee's disk shard serves again.
					c.wakeRebalancer()
				}
			case err != nil && w.isAlive():
				c.ejectWorker(w, "health probe failed: %v", err)
			case err != nil:
				w.probeFailed(c.cfg.HealthInterval, probeBackoffMax)
			}
		}
	}
}

func shortID(id string) string {
	if len(id) > 16 {
		return id[:16]
	}
	return id
}

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/rtnet/wrtring/internal/httpx"
	"github.com/rtnet/wrtring/internal/store"
)

// This file is the service's wire contract: the request/response bodies of
// the /v1/runs API plus the backpressure header helper. The types are
// exported because the API has two servers — cmd/wrtserved directly and
// cmd/wrtcoord, which speaks the identical protocol while fanning jobs out
// to a worker fleet (internal/cluster) — and one client (Client), shared by
// the coordinator and the remote mode of cmd/wrtsweep. Keeping the bodies
// in one place is what makes the coordinator a drop-in for the single node.

// SubmitRequest is the POST /v1/runs body. Scenarios are kept raw so each
// one is parsed strictly (unknown fields rejected) with a per-item error.
type SubmitRequest struct {
	Scenarios []json.RawMessage `json:"scenarios"`
}

// SubmitRun is one entry of the POST /v1/runs response.
type SubmitRun struct {
	ID string `json:"id,omitempty"`
	// Status is queued | cached | coalesced | rejected | invalid.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// SubmitResponse is the POST /v1/runs body: one entry per submitted
// scenario, in submission order.
type SubmitResponse struct {
	Runs []SubmitRun `json:"runs"`
}

// StatusResponse is the GET /v1/runs/{id} body.
type StatusResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Cached bool   `json:"cached,omitempty"`
	// Coalesced counts duplicate submissions folded onto this job.
	Coalesced int64 `json:"coalesced,omitempty"`
	// TraceEvents is the live journal size for Trace-enabled scenarios.
	TraceEvents uint64 `json:"traceEvents,omitempty"`
	ElapsedMs   int64  `json:"elapsedMs,omitempty"`
	Error       string `json:"error,omitempty"`
	// Result is the simulation's wrtring.Result JSON, present when done.
	Result json.RawMessage `json:"result,omitempty"`
}

// HoldContext is the context a held status read waits under: the request's
// own, ended after its wait=<duration> query parameter (GET
// /v1/runs/{id}?wait=10s, clamped by the surface to half the request
// timeout) or when the daemon releases its waits at shutdown. An absent
// wait is 0, which ends at once. An unparseable one is an error the caller
// answers with 400.
func HoldContext(surface *httpx.Surface, r *http.Request) (context.Context, context.CancelFunc, error) {
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return nil, nil, fmt.Errorf("wait=%q is not a non-negative duration such as 10s", v)
		}
		wait = d
	}
	ctx, cancel := surface.Hold(r, wait)
	return ctx, cancel, nil
}

// Terminal reports whether the status string names a terminal job state
// (done, failed or dropped) — the condition Client.Wait waits for.
func (r StatusResponse) Terminal() bool {
	switch r.Status {
	case StateDone.String(), StateFailed.String(), StateDropped.String():
		return true
	}
	return false
}

// ServiceStats is the GET /v1/stats body: the queue and cache counter
// snapshots as JSON, plus the worker's identity when it has one. The
// coordinator aggregates these across the fleet for its cluster-wide
// /metrics without parsing the text exposition.
type ServiceStats struct {
	Worker string     `json:"worker,omitempty"`
	Queue  QueueStats `json:"queue"`
	Cache  CacheStats `json:"cache"`
	// Store is the durable-tier snapshot, present when a store is attached.
	Store *store.Stats `json:"store,omitempty"`
	// Handoff counts the worker's shard-handoff pull activity.
	Handoff HandoffStats `json:"handoff"`
}

// DefaultRetryAfter is the backpressure hint stamped on 429/503 responses
// when the server has no better estimate.
const DefaultRetryAfter = time.Second

// SetRetryAfter stamps the standard Retry-After header (integer seconds,
// rounded up, at least 1) on a backpressure response. Both the single-node
// server (queue full, draining) and the cluster coordinator (all shards
// saturated) use it, so clients can treat 429/503 identically against
// either.
func SetRetryAfter(h http.Header, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	h.Set("Retry-After", strconv.Itoa(secs))
}

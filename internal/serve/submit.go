package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/httpx"
)

// This file is the one POST /v1/runs implementation behind both servers.
// wrtserved and wrtcoord used to carry private copies of this loop, and
// both copies shared the same correctness bug: a mid-batch draining error
// answered with a bare 503 and threw the partial response away — including
// the job IDs of scenarios already admitted earlier in the same batch. An
// admitted job is an accepted reservation (the queue will run it and count
// it), so losing its ID orphans real work the client can never poll. The
// protocol this repo reproduces is built around never silently losing an
// admitted reservation; the HTTP front end honours the same contract by
// always returning the full per-item response, whatever the final status.

// BatchSubmitter admits one scenario (serve.Queue.Submit and
// cluster.Coordinator.Submit both satisfy it).
type BatchSubmitter func(wrtring.Scenario) (id, outcome string, err error)

// DefaultMaxBatch bounds scenarios per POST /v1/runs request.
const DefaultMaxBatch = 256

// BatchSubmitOptions parameterise HandleBatchSubmit over the two servers.
type BatchSubmitOptions struct {
	// MaxBatch bounds scenarios per request (413 past it).
	MaxBatch int
	// RetryAfter is the backpressure hint stamped whenever any item was
	// rejected.
	RetryAfter time.Duration
	// Submit admits one parsed scenario.
	Submit BatchSubmitter
}

// HandleBatchSubmit decodes, validates and admits a POST /v1/runs batch.
// An admission error matching ErrDraining stops the whole batch: items
// already admitted keep their IDs, the current and remaining items are
// marked rejected unattempted, and the response is 503 + Retry-After. One
// matching ErrQueueFull rejects just its item; later items are still
// attempted.
//
// Per-item outcomes always reach the client: the response body is the full
// SubmitResponse even when the overall status is 400 (invalid items), 429
// (backpressure) or 503 (draining mid-batch). Retry-After is set whenever
// at least one item was rejected, regardless of the final status — a batch
// mixing invalid and queue-full items still tells the client when to retry
// the rejected ones.
func HandleBatchSubmit(w http.ResponseWriter, r *http.Request, opts BatchSubmitOptions) {
	// The body cap is installed by the httpx stack; a request past it
	// surfaces here as a decode error.
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		if httpx.BodyLimitExceeded(err) {
			status = http.StatusRequestEntityTooLarge
		}
		httpx.Error(w, r, status, fmt.Sprintf("parsing request: %v", err))
		return
	}
	if len(req.Scenarios) == 0 {
		httpx.Error(w, r, http.StatusBadRequest, "no scenarios in request")
		return
	}
	if len(req.Scenarios) > opts.MaxBatch {
		httpx.Error(w, r, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds the %d-scenario limit", len(req.Scenarios), opts.MaxBatch))
		return
	}

	resp := SubmitResponse{Runs: make([]SubmitRun, len(req.Scenarios))}
	status := http.StatusOK
	rejected := false
admit:
	for i, raw := range req.Scenarios {
		scenario, err := wrtring.ParseScenario(raw)
		if err != nil {
			resp.Runs[i] = SubmitRun{Status: "invalid", Error: err.Error()}
			status = http.StatusBadRequest
			continue
		}
		id, outcome, err := opts.Submit(scenario)
		switch {
		case err == nil:
			resp.Runs[i] = SubmitRun{ID: id, Status: outcome}
		case errors.Is(err, ErrDraining):
			// Admission shut down mid-batch. Earlier items may already be
			// admitted and their IDs must survive to the client; this item
			// and the rest are rejected unattempted, and 503 + Retry-After
			// says which ones to retry and when.
			for k := i; k < len(resp.Runs); k++ {
				resp.Runs[k] = SubmitRun{Status: "rejected", Error: err.Error()}
			}
			status = http.StatusServiceUnavailable
			rejected = true
			break admit
		case errors.Is(err, ErrQueueFull):
			resp.Runs[i] = SubmitRun{ID: id, Status: "rejected", Error: err.Error()}
			rejected = true
		default:
			resp.Runs[i] = SubmitRun{Status: "invalid", Error: err.Error()}
			status = http.StatusBadRequest
		}
	}
	if rejected {
		SetRetryAfter(w.Header(), opts.RetryAfter)
		if status == http.StatusOK {
			// Partial admission with no other failure: 429 asks the client
			// to retry just the rejected items after the hint.
			status = http.StatusTooManyRequests
		}
	}
	httpx.WriteJSON(w, status, resp)
}

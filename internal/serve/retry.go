package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	wrtring "github.com/rtnet/wrtring"
)

// This file is the client-side answer to the server's backpressure: Submit
// reports rejected items and a Retry-After hint, and before this existed
// every caller either hot-looped (resubmitting the instant a 429 landed) or
// slept a hard-coded constant that ignored the server's own estimate.
// SubmitScenariosRetry honours the hint, jitters it so a fleet of clients
// does not re-converge on the same instant, and lets the caller's context
// bound the whole affair.

// Retry shape for SubmitScenariosRetry.
const (
	// retryAttempts bounds submission rounds, the first included.
	retryAttempts = 8
	// retryMaxWait caps the accepted Retry-After hint: a server asking for
	// an hour does not get to park the client. Without a hint the client
	// waits DefaultRetryAfter.
	retryMaxWait = 30 * time.Second
	// retryJitter is the random fraction added to each wait, in
	// [0, retryJitter).
	retryJitter = 0.2
)

// RetryPolicy is SubmitScenariosRetry's policy argument. Callers pass the
// zero value: the retry shape is fixed by the constants above, and the
// unexported sleep hook lets tests skip the waits.
type RetryPolicy struct {
	// sleep is swapped in tests; nil uses a context-aware timer.
	sleep func(ctx context.Context, d time.Duration) error
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.sleep == nil {
		p.sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	return p
}

// retryWait computes one backoff interval from the response headers.
func retryWait(h http.Header) time.Duration {
	d := min(RetryAfter(h, DefaultRetryAfter), retryMaxWait)
	return d + time.Duration(rand.Float64()*retryJitter*float64(d))
}

// SubmitScenariosRetry submits scenarios like SubmitScenarios, but items
// rejected with backpressure (429 queue/shard full, 503 draining) are
// resubmitted after the server's Retry-After hint (jittered, capped) until
// they are accepted, retryAttempts rounds pass, or ctx expires. The returned
// response is in the original scenario order; items still rejected when
// retries run out keep their final "rejected" status for the caller to
// report. Transport errors abort immediately.
func (c *Client) SubmitScenariosRetry(ctx context.Context, scenarios []wrtring.Scenario, policy RetryPolicy) (*SubmitResponse, error) {
	p := policy.withDefaults()
	raw := make([]json.RawMessage, len(scenarios))
	for i, s := range scenarios {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, fmt.Errorf("serve: encoding scenario %d: %w", i, err)
		}
		raw[i] = b
	}

	final := SubmitResponse{Runs: make([]SubmitRun, len(raw))}
	pending := make([]int, len(raw)) // original indices still to submit
	for i := range pending {
		pending[i] = i
	}
	for attempt := 1; ; attempt++ {
		batch := make([]json.RawMessage, len(pending))
		for k, idx := range pending {
			batch[k] = raw[idx]
		}
		code, resp, header, err := c.submit(ctx, batch)
		if err != nil {
			return nil, err
		}
		if resp == nil || len(resp.Runs) != len(pending) {
			return nil, fmt.Errorf("serve: submit returned %d outcomes for %d scenarios (HTTP %d)", len(resp.Runs), len(pending), code)
		}
		var rejected []int
		for k, run := range resp.Runs {
			final.Runs[pending[k]] = run
			if run.Status == "rejected" {
				rejected = append(rejected, pending[k])
			}
		}
		if len(rejected) == 0 || attempt >= retryAttempts {
			return &final, nil
		}
		pending = rejected
		if err := p.sleep(ctx, retryWait(header)); err != nil {
			// Context expired mid-backoff; the partial response still tells
			// the caller which items were accepted before the deadline.
			return &final, err
		}
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/httpx"
)

// Client speaks the /v1/runs HTTP/JSON API. Both servers implement the same
// protocol, so one client targets either a single wrtserved or a wrtcoord
// cluster — the coordinator itself uses a Client per worker, and
// cmd/wrtsweep uses one for its remote mode.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the underlying client (NewClient installs a 60 s timeout;
	// replace it for shorter health-probe deadlines).
	HTTP *http.Client
}

// NewClient builds a client for the given server root.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL: strings.TrimRight(baseURL, "/"),
		HTTP:    &http.Client{Timeout: 60 * time.Second},
	}
}

// newRequest builds a request to path under BaseURL. A JSON body sets
// Content-Type, and the request ID ctx carries (httpx.RequestIDFrom) is
// forwarded, so one ID joins the access logs of every process a call
// crosses.
func (c *Client) newRequest(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := httpx.RequestIDFrom(ctx); id != "" {
		req.Header.Set(httpx.RequestIDHeader, id)
	}
	return req, nil
}

// Submit POSTs a batch of raw scenario specs and returns the HTTP status
// plus the decoded per-item outcomes. A non-2xx status with a decodable
// body (400 invalid items, 429 backpressure) is returned without error so
// the caller can act on the per-item statuses; err covers transport and
// decoding failures only.
func (c *Client) Submit(ctx context.Context, scenarios []json.RawMessage) (int, *SubmitResponse, error) {
	code, out, _, err := c.submit(ctx, scenarios)
	return code, out, err
}

// submit is Submit plus the response headers, which SubmitScenariosRetry
// needs for the Retry-After backpressure hint.
func (c *Client) submit(ctx context.Context, scenarios []json.RawMessage) (int, *SubmitResponse, http.Header, error) {
	body, err := json.Marshal(SubmitRequest{Scenarios: scenarios})
	if err != nil {
		return 0, nil, nil, fmt.Errorf("serve: encoding submit request: %w", err)
	}
	req, err := c.newRequest(ctx, http.MethodPost, "/v1/runs", body)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	var out SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, resp.Header, fmt.Errorf("serve: decoding submit response (HTTP %d): %w", resp.StatusCode, err)
	}
	return resp.StatusCode, &out, resp.Header, nil
}

// SubmitScenarios is Submit over parsed scenario values.
func (c *Client) SubmitScenarios(ctx context.Context, scenarios []wrtring.Scenario) (int, *SubmitResponse, error) {
	raw := make([]json.RawMessage, len(scenarios))
	for i, s := range scenarios {
		b, err := json.Marshal(s)
		if err != nil {
			return 0, nil, fmt.Errorf("serve: encoding scenario %d: %w", i, err)
		}
		raw[i] = b
	}
	return c.Submit(ctx, raw)
}

// Status GETs one run's status. 404 (unknown or evicted ID) is reported via
// the status code, not err.
func (c *Client) Status(ctx context.Context, id string) (int, *StatusResponse, error) {
	return c.getStatus(ctx, "/v1/runs/"+id)
}

// StatusWait is Status held on the server (GET /v1/runs/{id}?wait=) until
// the run is terminal or wait passes; the server clamps wait to half its
// request timeout. A non-terminal answer means the wait ran out first.
func (c *Client) StatusWait(ctx context.Context, id string, wait time.Duration) (int, *StatusResponse, error) {
	return c.getStatus(ctx, "/v1/runs/"+id+"?wait="+wait.String())
}

func (c *Client) getStatus(ctx context.Context, path string) (int, *StatusResponse, error) {
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("serve: decoding status response (HTTP %d): %w", resp.StatusCode, err)
	}
	return resp.StatusCode, &out, nil
}

// maxHold caps the wait Wait asks a server to hold one status read for.
const maxHold = time.Minute

// Wait blocks until a run reaches a terminal state (done, failed or
// dropped) and returns the final status body. Each status read is held on
// the server until the run finishes (StatusWait), asking for half the
// client's own timeout so the answer beats it. Only when a server answers
// with a non-terminal status — its wait ran out, it is shutting down, or it
// does not hold reads — does Wait pause for poll before asking again. A
// 404 is an error: the record vanished (server restart, eviction) and will
// not reappear.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*StatusResponse, error) {
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	wait := maxHold
	if t := c.HTTP.Timeout; t > 0 {
		wait = min(wait, t/2)
	}
	for {
		code, st, err := c.StatusWait(ctx, id, wait)
		if err != nil {
			return nil, err
		}
		if code == http.StatusNotFound {
			return nil, fmt.Errorf("serve: run %s unknown to %s (record lost; resubmit)", id, c.BaseURL)
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("serve: status %s: HTTP %d", id, code)
		}
		if st.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Healthz probes liveness; nil means the server answered 200.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := c.newRequest(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// Stats GETs the queue/cache counter snapshot.
func (c *Client) Stats(ctx context.Context) (*ServiceStats, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: stats: HTTP %d", resp.StatusCode)
	}
	var out ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("serve: decoding stats: %w", err)
	}
	return &out, nil
}

// StoreIndex GETs the server's store key index (content address + payload
// size per entry) — the input to shard-handoff planning.
func (c *Client) StoreIndex(ctx context.Context) (*StoreIndexResponse, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/store", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: store index: HTTP %d", resp.StatusCode)
	}
	var out StoreIndexResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("serve: decoding store index: %w", err)
	}
	return &out, nil
}

// StoreGet fetches one stored result's raw bytes from the server's shard.
// A 404 (key not held there) is an error, like any other non-200.
func (c *Client) StoreGet(ctx context.Context, id string) ([]byte, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/store/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("serve: store get %s: HTTP %d", id, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("serve: store get %s: %w", id, err)
	}
	return data, nil
}

// StorePull POSTs a shard-handoff pull request: the server fetches the
// given keys from the peer at req.From in the background. It returns the
// accepted key count; 429 (pull queue full) is an error the rebalancer
// retries on its next sweep.
func (c *Client) StorePull(ctx context.Context, pullReq StorePullRequest) (int, error) {
	body, err := json.Marshal(pullReq)
	if err != nil {
		return 0, fmt.Errorf("serve: encoding pull request: %w", err)
	}
	req, err := c.newRequest(ctx, http.MethodPost, "/v1/store/pull", body)
	if err != nil {
		return 0, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("serve: store pull: HTTP %d", resp.StatusCode)
	}
	var out StorePullResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("serve: decoding pull response: %w", err)
	}
	return out.Accepted, nil
}

// RetryAfter extracts a response's Retry-After hint, defaulting when the
// header is absent or malformed.
func RetryAfter(h http.Header, fallback time.Duration) time.Duration {
	if v := h.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return fallback
}

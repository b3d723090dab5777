package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"github.com/rtnet/wrtring/sweep"
)

// Client methods for the /v1/batches API. The stream reader deliberately
// does not use c.HTTP: its request-level timeout (60 s by default) would
// sever a long-running batch mid-stream, so streaming runs on a clone with
// no timeout and lets the caller's context bound it instead.

// SubmitBatch POSTs a grid spec and returns the accepted batch handle.
func (c *Client) SubmitBatch(ctx context.Context, g sweep.Grid) (*BatchSubmitResponse, error) {
	_, out, _, err := c.CreateBatch(ctx, BatchRequest{Grid: g})
	return out, err
}

// CreateBatch POSTs a batch request — a grid, optionally restricted to an
// index subset — and reports the HTTP status with the accepted handle on
// 202. Any other answer comes back as an error carrying the server's
// message, with the status and the response headers (Retry-After on
// 429/503) still reported; a transport failure reports status 0.
func (c *Client) CreateBatch(ctx context.Context, br BatchRequest) (int, *BatchSubmitResponse, http.Header, error) {
	body, err := json.Marshal(br)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("serve: encoding batch request: %w", err)
	}
	req, err := c.newRequest(ctx, http.MethodPost, "/v1/batches", body)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, nil, resp.Header,
			fmt.Errorf("serve: submit batch: HTTP %d: %s", resp.StatusCode, readError(resp.Body))
	}
	var out BatchSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, resp.Header, fmt.Errorf("serve: decoding batch response: %w", err)
	}
	return resp.StatusCode, &out, resp.Header, nil
}

// BatchStatus GETs one batch's status and shard accounting.
func (c *Client) BatchStatus(ctx context.Context, id string) (*BatchStatusResponse, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/batches/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: batch status %s: HTTP %d: %s", id, resp.StatusCode, readError(resp.Body))
	}
	var out BatchStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("serve: decoding batch status: %w", err)
	}
	return &out, nil
}

// CancelBatch DELETEs a batch: feeding stops, admitted shards drain.
func (c *Client) CancelBatch(ctx context.Context, id string) (*BatchStatusResponse, error) {
	req, err := c.newRequest(ctx, http.MethodDelete, "/v1/batches/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: cancel batch %s: HTTP %d: %s", id, resp.StatusCode, readError(resp.Body))
	}
	var out BatchStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("serve: decoding cancel response: %w", err)
	}
	return &out, nil
}

// maxResultLine bounds one streamed NDJSON line (a result payload plus
// framing); lines are small in practice, this is a defensive ceiling.
const maxResultLine = 16 << 20

// StreamBatchResults consumes a batch's NDJSON result stream, invoking fn
// per line until the stream ends (batch finished), fn returns an error, or
// ctx is cancelled. It returns the number of lines delivered.
func (c *Client) StreamBatchResults(ctx context.Context, id string, fn func(BatchResultLine) error) (int, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/batches/"+id+"/results", nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Accept", "application/x-ndjson")
	// No request timeout: the stream lives as long as the batch (or ctx).
	streamClient := &http.Client{Transport: c.HTTP.Transport}
	resp, err := streamClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("serve: batch results %s: HTTP %d: %s", id, resp.StatusCode, readError(resp.Body))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), maxResultLine)
	n := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line BatchResultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return n, fmt.Errorf("serve: decoding result line %d: %w", n, err)
		}
		if err := fn(line); err != nil {
			return n, err
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("serve: reading result stream: %w", err)
	}
	return n, nil
}

// readError extracts the message from an httpx error body for wrapping.
func readError(r io.Reader) string {
	body, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(body))
}

package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	wrtring "github.com/rtnet/wrtring"
)

// postBatch drives HandleBatchSubmit directly with a scripted submitter, so
// mid-batch admission transitions are exercised deterministically.
func postBatch(t *testing.T, submit BatchSubmitter, scenarios []wrtring.Scenario) *httptest.ResponseRecorder {
	t.Helper()
	var req SubmitRequest
	for _, s := range scenarios {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		req.Scenarios = append(req.Scenarios, b)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(string(body)))
	HandleBatchSubmit(w, r, BatchSubmitOptions{
		MaxBatch:   256,
		RetryAfter: 2 * time.Second,
		Submit:     submit,
	})
	return w
}

func decodeRuns(t *testing.T, w *httptest.ResponseRecorder) SubmitResponse {
	t.Helper()
	var resp SubmitResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatalf("response is not a SubmitResponse: %v (body %q)", err, w.Body.String())
	}
	return resp
}

// TestBatchSubmitMidBatchDrainKeepsAdmittedIDs is the headline regression:
// admission succeeding for the first items and then shutting down mid-batch
// must still hand the client every admitted job's ID. The old code answered
// a bare 503 and threw the partial response away — work the queue would run
// and count, with no ID the client could ever poll.
func TestBatchSubmitMidBatchDrainKeepsAdmittedIDs(t *testing.T) {
	var admitted []string
	submit := func(s wrtring.Scenario) (string, string, error) {
		if len(admitted) >= 2 {
			return "", "", ErrDraining
		}
		id, err := Key(s)
		if err != nil {
			t.Fatal(err)
		}
		admitted = append(admitted, id)
		return id, SubmitQueued, nil
	}

	batch := []wrtring.Scenario{fastScenario(1), fastScenario(2), fastScenario(3), fastScenario(4)}
	w := postBatch(t, submit, batch)

	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("mid-batch drain: HTTP %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 with rejected items carries no Retry-After")
	}
	resp := decodeRuns(t, w)
	if len(resp.Runs) != len(batch) {
		t.Fatalf("%d runs for %d scenarios", len(resp.Runs), len(batch))
	}
	// Every admitted job's ID reaches the client, in order.
	for i, id := range admitted {
		if resp.Runs[i].ID != id || resp.Runs[i].Status != SubmitQueued {
			t.Fatalf("admitted run %d lost: %+v, want ID %s", i, resp.Runs[i], id)
		}
	}
	// The unadmitted remainder is explicitly rejected with the drain error,
	// so the client knows exactly which items to retry.
	for i := len(admitted); i < len(batch); i++ {
		run := resp.Runs[i]
		if run.Status != "rejected" || !strings.Contains(run.Error, ErrDraining.Error()) {
			t.Fatalf("unadmitted run %d: %+v, want rejected with drain error", i, run)
		}
	}
}

// TestBatchSubmitRetryAfterOnMixedBatch: a batch mixing an invalid item
// (overall status 400) with a queue-full rejection must still carry the
// Retry-After hint — the old guard only set it when the final status was
// 200-turned-429, so mixed batches lost the backpressure signal.
func TestBatchSubmitRetryAfterOnMixedBatch(t *testing.T) {
	submit := func(s wrtring.Scenario) (string, string, error) {
		id, err := Key(s)
		if err != nil {
			t.Fatal(err)
		}
		return id, "", ErrQueueFull
	}

	var req SubmitRequest
	good, err := json.Marshal(fastScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	req.Scenarios = []json.RawMessage{good, json.RawMessage(`{"Bogus": 1}`)}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(string(body)))
	HandleBatchSubmit(w, r, BatchSubmitOptions{
		MaxBatch:   256,
		RetryAfter: 2 * time.Second,
		Submit:     submit,
	})

	if w.Code != http.StatusBadRequest {
		t.Fatalf("mixed batch: HTTP %d, want 400 (invalid item present)", w.Code)
	}
	if w.Header().Get("Retry-After") != "2" {
		t.Fatalf("mixed batch lost the backpressure hint: Retry-After %q, want \"2\"",
			w.Header().Get("Retry-After"))
	}
	resp := decodeRuns(t, w)
	if resp.Runs[0].Status != "rejected" || resp.Runs[0].ID == "" {
		t.Fatalf("queue-full item: %+v, want rejected with ID", resp.Runs[0])
	}
	if resp.Runs[1].Status != "invalid" {
		t.Fatalf("bogus item: %+v, want invalid", resp.Runs[1])
	}
}

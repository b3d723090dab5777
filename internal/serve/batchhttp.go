package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/rtnet/wrtring/internal/httpx"
	"github.com/rtnet/wrtring/sweep"
)

// This file is the /v1/batches HTTP surface, mounted identically by both
// daemons (MountBatchAPI), the same way HandleBatchSubmit unifies
// POST /v1/runs. The request body of POST /v1/batches is a sweep.Grid spec,
// optionally restricted to an index subset (BatchRequest); results stream
// back as NDJSON (or SSE when the client asks via Accept) through an httpx
// stream route, which is exempt from the per-request API deadline — a batch
// legitimately outlives -http-timeout.

// BatchRequest is the POST /v1/batches body: a sweep.Grid spec, and
// optionally the grid positions to run. A body without indices is a bare
// grid and runs every point. The coordinator sends each ring owner the
// whole grid plus the indices of the points that owner holds.
type BatchRequest struct {
	sweep.Grid
	// Indices restricts the batch to these grid positions: ascending,
	// unique, each below Grid.Size(), and at least one when present.
	Indices []int64 `json:"indices,omitempty"`
}

// Validate checks the grid and the index subset.
func (r BatchRequest) Validate() error {
	if err := r.Grid.Validate(); err != nil {
		return err
	}
	if r.Indices == nil {
		return nil
	}
	if len(r.Indices) == 0 {
		return errors.New("serve: indices is empty (omit it to run the whole grid)")
	}
	size := r.Grid.Size()
	for i, idx := range r.Indices {
		switch {
		case idx < 0 || idx >= size:
			return fmt.Errorf("serve: index %d is outside the grid's %d points", idx, size)
		case i > 0 && idx <= r.Indices[i-1]:
			return fmt.Errorf("serve: indices must ascend without repeats (%d after %d)", idx, r.Indices[i-1])
		}
	}
	return nil
}

// Expanded returns the number of points the request runs.
func (r BatchRequest) Expanded() int64 {
	if r.Indices != nil {
		return int64(len(r.Indices))
	}
	return r.Grid.Size()
}

// ParseBatchRequest decodes a POST /v1/batches body, rejecting unknown
// fields (like sweep.ParseGrid), and validates it.
func ParseBatchRequest(data []byte) (BatchRequest, error) {
	var r BatchRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return BatchRequest{}, fmt.Errorf("serve: parsing batch request: %w", err)
	}
	if err := r.Validate(); err != nil {
		return BatchRequest{}, err
	}
	return r, nil
}

// BatchSubmitResponse is the POST /v1/batches body.
type BatchSubmitResponse struct {
	ID string `json:"id"`
	// Expanded is the batch's point count: Grid.Size(), or the size of its
	// index subset.
	Expanded int64 `json:"expanded"`
}

// BatchStatusResponse is the GET /v1/batches/{id} body. The conservation
// law Expanded == Completed + Failed + Dropped + Rejected holds once the
// batch leaves "running" — including a mid-batch drain, where unstarted
// shards land in Rejected/Dropped and the partial results stay streamable.
type BatchStatusResponse struct {
	ID string `json:"id"`
	// Status is running | done | cancelled.
	Status   string `json:"status"`
	Expanded int64  `json:"expanded"`
	// Admitted counts shards accepted by the execution engine: on a single
	// node, jobs queued or coalesced in its table; on the coordinator,
	// shards an owner accepted in a sub-batch, each counted once whichever
	// owner ran it. CacheHits counts completed shards answered from a
	// result cache: at submit on a single node, where they never become
	// jobs; by the owner on the coordinator, where they are also admitted.
	// Coalesced counts shards folded onto an identical in-flight job; it is
	// 0 on the coordinator, whose owners' own batches count their folds.
	Admitted  int64 `json:"admitted"`
	CacheHits int64 `json:"cacheHits"`
	Coalesced int64 `json:"coalesced,omitempty"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Dropped   int64 `json:"dropped"`
	Rejected  int64 `json:"rejected"`
	ElapsedMs int64 `json:"elapsedMs"`
}

// BatchResultLine is one NDJSON line of GET /v1/batches/{id}/results,
// emitted in shard-completion order. Index is the shard's position in the
// grid's deterministic expansion order (sweep.Grid.PointAt), so a client
// reassembles the sweep regardless of completion interleaving.
type BatchResultLine struct {
	Index int64  `json:"index"`
	Name  string `json:"name"`
	// ID is the shard's content-addressed job ID (absent when the shard was
	// rejected before the engine keyed it).
	ID string `json:"id,omitempty"`
	// Status is completed | failed | dropped | rejected.
	Status   string `json:"status"`
	CacheHit bool   `json:"cacheHit,omitempty"`
	Error    string `json:"error,omitempty"`
	// Result is the simulation's wrtring.Result JSON, byte-identical to the
	// single-run API's, present for completed shards.
	Result json.RawMessage `json:"result,omitempty"`
}

// MountBatchAPI registers the batch endpoints on an httpx surface:
//
//	POST   /v1/batches              submit a grid spec (BatchRequest: sweep.Grid JSON, optional indices)
//	GET    /v1/batches/{id}         batch status and shard accounting
//	GET    /v1/batches/{id}/results stream results as NDJSON (SSE via Accept)
//	DELETE /v1/batches/{id}         cancel: stop feeding, drain admitted shards
//
// retryAfter stamps the backpressure hint on 429/503 responses.
func MountBatchAPI(surface *httpx.Surface, bs *Batches, retryAfter time.Duration) {
	api := &batchAPI{batches: bs, surface: surface, retryAfter: retryAfter}
	mux := surface.Mux()
	mux.HandleFunc("POST /v1/batches", api.handleCreate)
	mux.HandleFunc("GET /v1/batches/{id}", api.handleStatus)
	mux.HandleFunc("DELETE /v1/batches/{id}", api.handleCancel)
	surface.HandleStream("GET /v1/batches/{id}/results", http.HandlerFunc(api.handleResults))
}

type batchAPI struct {
	batches    *Batches
	surface    *httpx.Surface
	retryAfter time.Duration
}

func (api *batchAPI) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		if httpx.BodyLimitExceeded(err) {
			status = http.StatusRequestEntityTooLarge
		}
		httpx.Error(w, r, status, fmt.Sprintf("reading request: %v", err))
		return
	}
	req, err := ParseBatchRequest(body)
	if err != nil {
		httpx.Error(w, r, http.StatusBadRequest, err.Error())
		return
	}
	b, err := api.batches.Create(r.Context(), req)
	switch {
	case err == nil:
		httpx.WriteJSON(w, http.StatusAccepted, BatchSubmitResponse{ID: b.ID(), Expanded: req.Expanded()})
	case errors.Is(err, ErrBatchTooLarge):
		httpx.Error(w, r, http.StatusRequestEntityTooLarge, err.Error())
	case errors.Is(err, ErrTooManyBatches):
		SetRetryAfter(w.Header(), api.retryAfter)
		httpx.Error(w, r, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		SetRetryAfter(w.Header(), api.retryAfter)
		httpx.Error(w, r, http.StatusServiceUnavailable, err.Error())
	default:
		httpx.Error(w, r, http.StatusBadRequest, err.Error())
	}
}

func (api *batchAPI) handleStatus(w http.ResponseWriter, r *http.Request) {
	b, ok := api.batches.Get(r.PathValue("id"))
	if !ok {
		httpx.Error(w, r, http.StatusNotFound, "unknown batch ID (never submitted, or aged out of retention)")
		return
	}
	httpx.WriteJSON(w, http.StatusOK, b.Status())
}

func (api *batchAPI) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !api.batches.Cancel(id) {
		httpx.Error(w, r, http.StatusNotFound, "unknown batch ID (never submitted, or aged out of retention)")
		return
	}
	b, _ := api.batches.Get(id)
	httpx.WriteJSON(w, http.StatusOK, b.Status())
}

// handleResults streams a batch's terminal shards in completion order,
// flushing per line, and replays from the start for every new reader (the
// doneOrder log is the stream). The connection stays open until every shard
// is terminal, the client goes away or the daemon releases its waits at
// shutdown (a client reconnects and replays). A line carries the bytes the
// batch holds for its shard; otherwise they are read from the engine per
// line, so a replay after cache eviction degrades to a per-line error
// instead of a broken stream.
func (api *batchAPI) handleResults(w http.ResponseWriter, r *http.Request) {
	b, ok := api.batches.Get(r.PathValue("id"))
	if !ok {
		httpx.Error(w, r, http.StatusNotFound, "unknown batch ID (never submitted, or aged out of retention)")
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	b.attach()
	defer b.detach()
	cursor := 0
	for {
		sl, ok, wake, finished := b.lineAt(cursor)
		if !ok {
			if finished {
				return
			}
			select {
			case <-r.Context().Done():
				return
			case <-api.surface.Released():
				return
			case <-wake:
			}
			continue
		}
		cursor++
		line := sl.BatchResultLine
		if line.Status == ShardCompleted && line.Result == nil {
			res, err := api.batches.opts.Backend.ShardResult(r.Context(), line.ID, sl.worker)
			if err != nil {
				line.Error = err.Error()
			} else {
				line.Result = res
			}
		}
		data, err := json.Marshal(line)
		if err != nil {
			return // cannot happen for these types; give up on the stream
		}
		if sse {
			fmt.Fprintf(w, "data: %s\n\n", data)
		} else {
			w.Write(data)
			w.Write([]byte{'\n'})
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

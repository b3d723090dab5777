package main

import (
	"cmp"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rtnet/wrtring/internal/serve"
)

// spanHeader carries a client span's ID to the coordinator's handler
// wrapper, which links its own span to it. The coordinator does not forward
// headers to its workers, so worker spans are linked by run ID instead (see
// link).
const spanHeader = "X-Wrtbench-Span"

// maxSpans bounds the in-memory span log of one traced run.
const maxSpans = 400_000

// span is one timed call at a layer boundary, recorded from outside the
// program: a request leaving the benchmark's client, or a request entering
// the coordinator's or a server's handler.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Node   string `json:"node"`  // client | coord | w1 | w2 | solo
	Route  string `json:"route"` // method and path pattern
	// Op is the run ID (serve.Key) for single-run calls and the batch ID for
	// batch calls.
	Op string `json:"op,omitempty"`
	// Status is the submit outcome or job status a server answered.
	Status string `json:"status,omitempty"`
	Phase  string `json:"phase"` // run | probe
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes"`

	body []byte // captured response body, decoded by finish
}

func (s *span) dur() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans while a phase is set. A nil tracer records nothing
// and wraps nothing, so untraced runs pay no tracing cost at all.
type tracer struct {
	t0    time.Time
	seq   atomic.Int64
	phase atomic.Pointer[string]

	mu      sync.Mutex
	spans   []*span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setPhase starts recording under the given phase name ("" stops).
func (t *tracer) setPhase(p string) { t.phase.Store(&p) }

func (t *tracer) current() string {
	if p := t.phase.Load(); p != nil {
		return *p
	}
	return ""
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(node string, r *http.Request, phase string) *span {
	route, op := routeOf(r)
	return &span{ID: t.seq.Add(1), Node: node, Route: route, Op: op, Phase: phase, Start: t.now()}
}

// finish stamps the end, decodes what the response body says about the
// operation, and files the span.
func (t *tracer) finish(s *span) {
	s.End = t.now()
	if len(s.body) > 0 {
		switch s.Route {
		case "POST /v1/runs":
			var r serve.SubmitResponse
			if json.Unmarshal(s.body, &r) == nil && len(r.Runs) == 1 {
				s.Op, s.Status = r.Runs[0].ID, r.Runs[0].Status
			}
		case "GET /v1/runs/{id}":
			var r struct {
				Status string `json:"status"`
			}
			if json.Unmarshal(s.body, &r) == nil {
				s.Status = r.Status
			}
		case "POST /v1/batches":
			var r serve.BatchSubmitResponse
			if json.Unmarshal(s.body, &r) == nil {
				s.Op = r.ID
			}
		}
		s.body = nil
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// routeOf maps a request to its route pattern and the ID the path carries.
func routeOf(r *http.Request) (route, op string) {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/runs/"):
		return r.Method + " /v1/runs/{id}", strings.TrimPrefix(p, "/v1/runs/")
	case strings.HasPrefix(p, "/v1/batches/") && strings.HasSuffix(p, "/results"):
		return r.Method + " /v1/batches/{id}/results", strings.TrimSuffix(strings.TrimPrefix(p, "/v1/batches/"), "/results")
	case strings.HasPrefix(p, "/v1/batches/"):
		return r.Method + " /v1/batches/{id}", strings.TrimPrefix(p, "/v1/batches/")
	case strings.HasPrefix(p, "/v1/store/"):
		return r.Method + " /v1/store/{id}", strings.TrimPrefix(p, "/v1/store/")
	}
	return r.Method + " " + p, ""
}

// captures reports whether a route's response body is worth decoding.
func captures(route string) bool {
	return route == "POST /v1/runs" || route == "GET /v1/runs/{id}" || route == "POST /v1/batches"
}

// tracedTransport is the client-side span source, installed as the
// transport of the benchmark's serve.Client. A span ends when the caller
// closes the response body, so it covers reading and decoding it.
type tracedTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	phase := tt.t.current()
	if phase == "" {
		return tt.next.RoundTrip(req)
	}
	s := tt.t.begin("client", req, phase)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10))
	resp, err := tt.next.RoundTrip(out)
	if err != nil {
		tt.t.finish(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, s: s, capture: captures(s.Route)}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t       *tracer
	s       *span
	capture bool
	once    sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	if b.capture {
		b.s.body = append(b.s.body, p[:n]...)
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.finish(b.s) })
	return err
}

// wrap is the server-side span source: it times every request the handler
// serves and counts the bytes in and out.
func (t *tracer) wrap(node string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		phase := t.current()
		if phase == "" {
			h.ServeHTTP(w, r)
			return
		}
		s := t.begin(node, r, phase)
		if id, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64); err == nil {
			s.Parent = id
		}
		in := &countingBody{ReadCloser: r.Body}
		r.Body = in
		cw := &captureWriter{ResponseWriter: w, s: s, capture: captures(s.Route)}
		h.ServeHTTP(cw, r)
		s.Bytes += in.n
		t.finish(s)
	})
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

// captureWriter counts (and for decodable routes keeps) the response body.
// It forwards Flush so streamed batch results still stream.
type captureWriter struct {
	http.ResponseWriter
	s       *span
	capture bool
}

func (w *captureWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.s.Bytes += int64(n)
	if w.capture {
		w.s.body = append(w.s.body, p[:n]...)
	}
	return n, err
}

func (w *captureWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *captureWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// link gives the coordinator's proxied result reads their parent span. A
// worker call for a run is either the dispatcher's — the submit, then status
// polls up to the first that answers done — or, only after that, a result
// read made while serving a client: a status request for the same run, or
// the stream of the batch the run is a shard of (batchOf maps run IDs to
// batch IDs; the benchmark knows its own grids). Dispatcher calls stay
// roots.
func link(spans []*span, batchOf map[string]string) {
	coordByOp := make(map[string][]*span)
	workerByOp := make(map[string][]*span)
	for _, s := range spans {
		switch {
		case s.Op == "" || s.Node == "client":
		case s.Node == "coord":
			coordByOp[s.Op] = append(coordByOp[s.Op], s)
		case s.Parent == 0 && (s.Route == "POST /v1/runs" || s.Route == "GET /v1/runs/{id}"):
			workerByOp[s.Op] = append(workerByOp[s.Op], s)
		}
	}
	for op, ss := range workerByOp {
		ss = sortedByStart(ss)
		dispatching := ss[0].Route == "POST /v1/runs"
		for _, s := range ss {
			if dispatching {
				dispatching = !(s.Route == "GET /v1/runs/{id}" && s.Status == serve.StateDone.String())
				continue
			}
			for _, c := range append(coordByOp[op], coordByOp[batchOf[op]]...) {
				if c.Start <= s.Start && s.End <= c.End {
					s.Parent = c.ID
					break
				}
			}
		}
	}
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, in ms, keyed by span ID.
func selfTimes(spans []*span) map[int64]float64 {
	children := make(map[int64][]*span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		covered := int64(0)
		cursor := s.Start
		for _, c := range sortedByStart(children[s.ID]) {
			lo, hi := max(c.Start, cursor), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = float64(s.End-s.Start-covered) / 1e6
	}
	return self
}

func sortedByStart(ss []*span) []*span {
	out := slices.Clone(ss)
	slices.SortFunc(out, func(a, b *span) int { return cmp.Compare(a.Start, b.Start) })
	return out
}

// writeSpans writes the span log as one JSON document.
func (t *tracer) writeSpans(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Dropped  int     `json:"dropped"`
		Spans    []*span `json:"spans"`
	}{workload, seed, t.dropped, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

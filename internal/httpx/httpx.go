// Package httpx is the shared production HTTP surface for the repository's
// daemons (cmd/wrtserved, cmd/wrtcoord). Both speak the same /v1/runs
// protocol and both need the same plumbing — request IDs, per-request
// timeouts, body limits, panic recovery, access logs, a metrics exposition
// writer, pprof — so that plumbing lives here exactly once instead of being
// hand-rolled (and bug-for-bug duplicated) per daemon.
//
// A Surface composes the stack in a fixed order, outermost first:
//
//	request ID → access log → panic recovery → timeout → body limit → mux
//
// Request ID is outermost so every later stage (log entries, error bodies,
// panic reports) can name the request. The access log sits outside recovery
// so a panicking request is still logged, with the 500 recovery assigned
// it. Recovery wraps the whole mux rather than individual handlers: a panic
// in routing, in a middleware below, or in any future handler is caught
// without every registration site having to remember to opt in — and
// without it, net/http closes the connection with no response at all, which
// a client cannot distinguish from a network failure. Timeout and body
// limit sit innermost because they are per-request resource bounds on
// handler work, and because the debug surface (/debug/pprof, /debug/log)
// must bypass them — a 30-second CPU profile is legitimate work that a
// request deadline would truncate.
package httpx

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Defaults for Config zero values.
const (
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxBodyBytes   = 8 << 20
	DefaultLogEntries     = 256
)

// Config sizes a Surface.
type Config struct {
	// RequestTimeout bounds each API request end to end; past it the client
	// gets 503 in the shared error shape (<= 0: DefaultRequestTimeout).
	// Debug endpoints are exempt (pprof profiles run for ?seconds=N).
	RequestTimeout time.Duration
	// MaxBodyBytes caps API request bodies (<= 0: DefaultMaxBodyBytes).
	// Decode errors past the cap satisfy BodyLimitExceeded.
	MaxBodyBytes int64
	// Pprof mounts net/http/pprof under /debug/pprof/ (flag-gated by the
	// daemons: profiling endpoints expose internals and cost CPU).
	Pprof bool
	// LogEntries sizes the /debug/log access-log ring
	// (<= 0: DefaultLogEntries; rounded up to a power of two).
	LogEntries int
	// Logf receives recovered panics with their stacks (nil: log.Printf).
	Logf func(format string, args ...any)
}

// Surface is one daemon's composed HTTP front: an API mux behind the full
// middleware stack, plus a debug mux (/debug/log, optionally /debug/pprof/)
// behind the same stack minus the timeout and body limit.
type Surface struct {
	api     *http.ServeMux
	root    *http.ServeMux
	ring    *Ring
	handler http.Handler
	// maxBody and logf are kept for HandleStream, which composes its own
	// per-route stack after NewSurface has built the shared ones.
	maxBody int64
	logf    func(format string, args ...any)
	// maxHold bounds a held request's wait (see Hold); released ends every
	// hold once Release is called.
	maxHold  time.Duration
	released context.Context
	release  context.CancelFunc
}

// NewSurface builds the composed surface. Register API routes on Mux(),
// then serve Handler().
func NewSurface(cfg Config) *Surface {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	s := &Surface{
		api:     http.NewServeMux(),
		root:    http.NewServeMux(),
		ring:    NewRing(cfg.LogEntries),
		maxBody: cfg.MaxBodyBytes,
		logf:    logf,
		maxHold: cfg.RequestTimeout / 2,
	}
	s.released, s.release = context.WithCancel(context.Background())

	debugMux := http.NewServeMux()
	debugMux.Handle("GET /debug/log", s.ring)
	if cfg.Pprof {
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	var apiStack http.Handler = s.api
	apiStack = bodyLimit(cfg.MaxBodyBytes, apiStack)
	apiStack = timeout(cfg.RequestTimeout, apiStack)
	s.root.Handle("/debug/", s.wrapOuter(debugMux, logf))
	s.root.Handle("/", s.wrapOuter(apiStack, logf))
	s.handler = s.root
	return s
}

// wrapOuter applies the stages shared by the API and debug surfaces:
// request ID, access log, panic recovery.
func (s *Surface) wrapOuter(h http.Handler, logf func(string, ...any)) http.Handler {
	return requestID(accessLog(s.ring, recovery(logf, h)))
}

// Mux is the API route registry (the innermost mux of the stack).
func (s *Surface) Mux() *http.ServeMux { return s.api }

// HandleStream registers a streaming API route exempt from the per-request
// timeout, the way /debug/pprof already is: a long-lived response (NDJSON
// or SSE results trickling out as work completes) is legitimate work that
// the deadline would truncate — and the timeout stage's buffering writer
// would defeat per-line flushing anyway. Everything else still applies:
// request ID, access log, panic recovery, and the body cap. The pattern
// must be more specific than the API catch-all (net/http's precedence
// routes it ahead of "/"), which every concrete "GET /v1/..." pattern is.
func (s *Surface) HandleStream(pattern string, h http.Handler) {
	s.root.Handle(pattern, s.wrapOuter(bodyLimit(s.maxBody, h), s.logf))
}

// Hold returns the context a handler parks its request under while it
// waits for work to finish: the request's own, ended after d or by Release.
// d is clamped to half the request timeout, so the handler's answer always
// beats the timeout stage's 503. Call cancel once the wait is over.
func (s *Surface) Hold(r *http.Request, d time.Duration) (ctx context.Context, cancel context.CancelFunc) {
	ctx, cancelWait := context.WithTimeout(r.Context(), min(d, s.maxHold))
	stop := context.AfterFunc(s.released, cancelWait)
	return ctx, func() { stop(); cancelWait() }
}

// Release ends every held wait now and every later one at once, so each is
// answered with whatever its handler has at that moment, and closes
// Released for the streams. Register it with http.Server.RegisterOnShutdown:
// Shutdown waits for active requests, so an open hold or stream would
// otherwise delay exit.
func (s *Surface) Release() { s.release() }

// Released is closed by Release. A stream route ends its response when it
// closes.
func (s *Surface) Released() <-chan struct{} { return s.released.Done() }

// Handler is the fully composed stack, ready for http.Server or httptest.
func (s *Surface) Handler() http.Handler { return s.handler }

// Log exposes the access-log ring (tests, future samplers).
func (s *Surface) Log() *Ring { return s.ring }

// ---------------------------------------------------------------- request ID

type ctxKey int

const requestIDKey ctxKey = iota

// RequestIDHeader carries the request ID on requests (honoured if sane) and
// responses (always set).
const RequestIDHeader = "X-Request-Id"

// RequestIDFrom returns the request's ID, or "" outside the stack.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// WithRequestID returns ctx carrying id as its request ID, for contexts
// built outside a handler that make calls on a request's behalf.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not worth failing a request over; fall back
		// to a timestamp that is still unique enough to grep a log by.
		return fmt.Sprintf("t%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

func requestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" || len(id) > 64 || strings.ContainsAny(id, " \t\"\\") {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(WithRequestID(r.Context(), id)))
	})
}

// ---------------------------------------------------------------- access log

// statusWriter records the status and body size a handler produced, so the
// access log and the recovery stage know what (if anything) went out.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.wrote = true
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if !sw.wrote {
		sw.wrote = true
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming handlers (NDJSON,
// SSE) behind the access log can push each line to the client as it is
// produced. Flushing an unwritten response commits the headers, so it
// counts as an implicit 200 for the log, matching net/http's behaviour.
func (sw *statusWriter) Flush() {
	if !sw.wrote {
		sw.wrote = true
		sw.status = http.StatusOK
	}
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func accessLog(ring *Ring, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			ring.Append(Entry{
				Time:       start.UTC(),
				RequestID:  RequestIDFrom(r.Context()),
				Method:     r.Method,
				Path:       r.URL.Path,
				Status:     sw.status,
				Bytes:      sw.bytes,
				DurationMs: float64(time.Since(start).Microseconds()) / 1000,
				Remote:     r.RemoteAddr,
			})
		}()
		next.ServeHTTP(sw, r)
	})
}

// ------------------------------------------------------------ panic recovery

func recovery(logf func(string, ...any), next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				// The sanctioned way to abort a response; net/http handles it.
				panic(p)
			}
			logf("httpx: panic serving %s %s (request %s): %v\n%s",
				r.Method, r.URL.Path, RequestIDFrom(r.Context()), p, debug.Stack())
			// The access-log wrapper is directly outside this stage, so a
			// written response is visible here; only a clean writer can still
			// carry the 500 body.
			if sw, ok := w.(*statusWriter); !ok || !sw.wrote {
				Error(w, r, http.StatusInternalServerError, "internal server error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// ----------------------------------------------------------------- timeout

// timeoutWriter buffers the handler's response so a deadline can atomically
// choose between the buffered reply (handler finished first) and the 503
// (deadline first) — never an interleaving of both. Same construction as
// net/http's TimeoutHandler, but emitting the shared JSON error shape.
type timeoutWriter struct {
	mu       sync.Mutex
	h        http.Header
	buf      []byte
	status   int
	timedOut bool
}

func (tw *timeoutWriter) Header() http.Header { return tw.h }

func (tw *timeoutWriter) WriteHeader(code int) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.status == 0 {
		tw.status = code
	}
}

func (tw *timeoutWriter) Write(b []byte) (int, error) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.timedOut {
		return 0, http.ErrHandlerTimeout
	}
	if tw.status == 0 {
		tw.status = http.StatusOK
	}
	tw.buf = append(tw.buf, b...)
	return len(b), nil
}

func timeout(d time.Duration, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		r = r.WithContext(ctx)

		tw := &timeoutWriter{h: make(http.Header)}
		done := make(chan struct{})
		panicked := make(chan any, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					panicked <- p
				}
			}()
			next.ServeHTTP(tw, r)
			close(done)
		}()

		select {
		case p := <-panicked:
			// Re-panic on the request goroutine so the recovery stage above
			// turns it into a logged 500 (a panic swallowed here would hang
			// nothing but hide everything).
			panic(p)
		case <-done:
			tw.mu.Lock()
			defer tw.mu.Unlock()
			dst := w.Header()
			for k, v := range tw.h {
				dst[k] = v
			}
			if tw.status == 0 {
				tw.status = http.StatusOK
			}
			w.WriteHeader(tw.status)
			_, _ = w.Write(tw.buf)
		case <-ctx.Done():
			tw.mu.Lock()
			tw.timedOut = true // later handler writes go nowhere
			tw.mu.Unlock()
			Error(w, r, http.StatusServiceUnavailable,
				fmt.Sprintf("request timed out after %s", d))
		}
	})
}

// --------------------------------------------------------------- body limit

func bodyLimit(n int64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, n)
		}
		next.ServeHTTP(w, r)
	})
}

// BodyLimitExceeded reports whether a body-read or decode error was the
// stack's body cap firing; handlers map it to 413 in the shared error shape.
func BodyLimitExceeded(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// ----------------------------------------------------------- JSON responses

// ErrorBody is the shared error shape every failure path on the surface
// produces, carrying the request ID so a client report can be matched to
// the server's access log and panic stacks.
type ErrorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"requestId,omitempty"`
}

// jsonBufPool holds the scratch buffers WriteJSON encodes into before the
// single response write. Encoding to a pooled buffer instead of straight to
// the ResponseWriter keeps the per-response encoding allocations at zero
// (each buffer retains the capacity of the largest response it has carried)
// and makes the body length known up front, so every response — including
// large cached results that streaming encoding would have chunked — goes
// out with an exact Content-Length.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// WriteJSON writes v as a JSON response with the given status. The body is
// byte-identical to json.NewEncoder(w).Encode(v): json.Marshal's bytes plus
// a trailing newline.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufPool.Put(buf)
		w.WriteHeader(status)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	jsonBufPool.Put(buf)
}

// Error writes the shared error shape.
func Error(w http.ResponseWriter, r *http.Request, status int, msg string) {
	WriteJSON(w, status, ErrorBody{
		Error:     strings.TrimSpace(msg),
		RequestID: RequestIDFrom(r.Context()),
	})
}

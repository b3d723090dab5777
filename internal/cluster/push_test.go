package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/serve"
)

// longScenario runs for tens of seconds: a job still in flight whenever a
// test looks at it. Tests abort it with short drains.
func longScenario(seed uint64) wrtring.Scenario {
	s := fastScenario(seed)
	s.Duration = 50_000_000
	return s
}

// requestCounter wraps a worker's handler and counts the run requests it
// serves, by kind.
type requestCounter struct {
	next http.Handler

	mu                     sync.Mutex
	submits, held, proxied int
}

func (rc *requestCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rc.mu.Lock()
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/runs":
		rc.submits++
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/runs/"):
		if r.URL.Query().Has("wait") {
			rc.held++
		} else {
			rc.proxied++
		}
	}
	rc.mu.Unlock()
	rc.next.ServeHTTP(w, r)
}

// take returns the tallies and resets them.
func (rc *requestCounter) take() (submits, held, proxied int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	submits, held, proxied = rc.submits, rc.held, rc.proxied
	rc.submits, rc.held, rc.proxied = 0, 0, 0
	return submits, held, proxied
}

// countedCluster is a coordinator over one worker whose requests are
// counted. PollInterval is an hour: a dispatcher that ever paused to ask
// again would stall the test instead of passing it. RequestTimeout makes
// each held read wait 15 s, so that even under -race on a loaded host a
// slowScenario run ends inside one.
type countedCluster struct {
	coord   *Coordinator
	worker  *serve.Server
	counter *requestCounter
	workerC *serve.Client // straight to the worker
	coordC  *serve.Client // through the coordinator
	front   *httptest.Server
	// heldAtFront signals each held read arriving at the coordinator.
	heldAtFront chan struct{}
}

func newCountedCluster(t *testing.T) *countedCluster {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 1, QueueCapacity: 8, WorkerID: "w1"})
	rc := &requestCounter{next: srv.Handler()}
	ts := httptest.NewServer(rc)
	coord, err := New(Config{
		Workers:        []WorkerSpec{{ID: "w1", URL: ts.URL}},
		PollInterval:   time.Hour,
		HealthInterval: time.Hour,
		RequestTimeout: 30 * time.Second,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	heldAtFront := make(chan struct{}, 16)
	front := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("wait") {
			select {
			case heldAtFront <- struct{}{}:
			default:
			}
		}
		coord.Handler().ServeHTTP(w, r)
	}))
	front.Config.RegisterOnShutdown(coord.ReleaseWaits)
	front.Start()
	t.Cleanup(func() {
		coord.Drain(10 * time.Millisecond)
		front.Close()
		srv.Drain(10 * time.Millisecond)
		ts.Close()
	})
	return &countedCluster{
		coord: coord, worker: srv, counter: rc, front: front, heldAtFront: heldAtFront,
		workerC: serve.NewClient(ts.URL), coordC: serve.NewClient(front.URL),
	}
}

func submitWait(t *testing.T, c *serve.Client, s wrtring.Scenario) *serve.StatusResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	code, resp, err := c.SubmitScenarios(ctx, []wrtring.Scenario{s})
	if err != nil || code != http.StatusOK {
		t.Fatalf("submit: HTTP %d, %v", code, err)
	}
	st, err := c.Wait(ctx, resp.Runs[0].ID, time.Hour)
	if err != nil || st.Status != serve.StateDone.String() || len(st.Result) == 0 {
		t.Fatalf("wait: %+v, %v", st, err)
	}
	return st
}

// TestDispatchRequestCounts pins the push path's worker traffic: a dispatch
// the worker answers "cached" makes no status call at all, and a queued job
// makes exactly one, held until the job is done. The client's own result
// read is the one non-waiting proxy call in both cases.
func TestDispatchRequestCounts(t *testing.T) {
	cc := newCountedCluster(t)

	// Warm the worker's cache directly, so the coordinator's dispatch of the
	// same spec is answered "cached".
	warm := fastScenario(1)
	submitWait(t, cc.workerC, warm)
	cc.counter.take()
	if st := submitWait(t, cc.coordC, warm); !st.Cached {
		t.Fatalf("dispatch of a warm spec: %+v, want a remote cache hit", st)
	}
	if submits, held, proxied := cc.counter.take(); submits != 1 || held != 0 || proxied != 1 {
		t.Fatalf("cached dispatch: %d submits, %d held status reads, %d proxied reads; want 1, 0, 1",
			submits, held, proxied)
	}
	if hits := cc.coord.Stats().RemoteCacheHits; hits != 1 {
		t.Fatalf("remote cache hits %d, want 1", hits)
	}

	// A job that runs for a while: one held read spans it.
	submitWait(t, cc.coordC, slowScenario(2))
	if submits, held, proxied := cc.counter.take(); submits != 1 || held != 1 || proxied != 1 {
		t.Fatalf("queued dispatch: %d submits, %d held status reads, %d proxied reads; want 1, 1, 1",
			submits, held, proxied)
	}
}

// TestCoordinatorHeldStatus: on the coordinator, a done or unknown ID with
// ?wait= is answered at once, and an open wait on a long job is released
// by shutdown with the job's current status.
func TestCoordinatorHeldStatus(t *testing.T) {
	cc := newCountedCluster(t)
	ctx := context.Background()

	done := submitWait(t, cc.coordC, fastScenario(1))
	start := time.Now()
	code, st, err := cc.coordC.StatusWait(ctx, done.ID, 10*time.Second)
	if err != nil || code != http.StatusOK || st.Status != serve.StateDone.String() || len(st.Result) == 0 {
		t.Fatalf("done job: HTTP %d %+v %v", code, st, err)
	}
	if code, _, err := cc.coordC.StatusWait(ctx, "v1-unknown", 10*time.Second); err != nil || code != http.StatusNotFound {
		t.Fatalf("unknown ID: HTTP %d %v, want 404", code, err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("done and unknown IDs took %v, want answers at once", took)
	}

	code, resp, err := cc.coordC.SubmitScenarios(ctx, []wrtring.Scenario{longScenario(3)})
	if err != nil || code != http.StatusOK {
		t.Fatalf("submit: HTTP %d, %v", code, err)
	}
	for len(cc.heldAtFront) > 0 {
		<-cc.heldAtFront
	}
	answered := make(chan *serve.StatusResponse, 1)
	go func() {
		code, st, err := cc.coordC.StatusWait(ctx, resp.Runs[0].ID, 10*time.Second)
		if err != nil || code != http.StatusOK {
			st = nil
		}
		answered <- st
	}()
	<-cc.heldAtFront
	shutdownCtx, cancel := context.WithTimeout(ctx, 8*time.Second)
	defer cancel()
	start = time.Now()
	if err := cc.front.Config.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("shutdown took %v with a held wait open, want prompt", took)
	}
	if st := <-answered; st == nil || st.Terminal() {
		t.Fatalf("released wait answered %+v, want 200 with the job in flight", st)
	}
}

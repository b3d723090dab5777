package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/sweep"
)

// longScenario runs for tens of seconds: a job that is still in flight
// whenever a test looks at it. Tests abort it with a short Drain.
func longScenario(seed uint64) wrtring.Scenario {
	s := fastScenario(seed)
	s.Duration = 50_000_000
	return s
}

// heldGet GETs /v1/runs/{id}?wait=<wait> and reports the status code, the
// raw body and how long the server held the request.
func heldGet(t *testing.T, base, id, wait string) (int, string, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(base + "/v1/runs/" + id + "?wait=" + wait)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), time.Since(start)
}

func submitOne(t *testing.T, base string, s wrtring.Scenario) string {
	t.Helper()
	code, resp := postRuns(t, base, []wrtring.Scenario{s})
	if code != http.StatusOK || len(resp.Runs) != 1 || resp.Runs[0].ID == "" {
		t.Fatalf("submit: HTTP %d %+v", code, resp)
	}
	return resp.Runs[0].ID
}

// TestHeldStatusReturnsOnCompletion: a held read answers when the job
// finishes, with the result. Wait's poll pause is an hour, so the run can
// only finish in time if the server held the read instead of answering
// "running" and leaving Wait to sleep.
func TestHeldStatusReturnsOnCompletion(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCapacity: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(time.Minute)

	id := submitOne(t, ts.URL, slowScenario(1))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := NewClient(ts.URL).Wait(ctx, id, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StateDone.String() || len(st.Result) == 0 {
		t.Fatalf("held read answered %+v, want done with the result", st)
	}
}

// TestHeldStatusClampedBelowRequestTimeout: a wait longer than the request
// timeout is clamped to half of it, so the read answers 200 with the job's
// current state — never the timeout stage's 503.
func TestHeldStatusClampedBelowRequestTimeout(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCapacity: 4, RequestTimeout: 100 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(10 * time.Millisecond)

	id := submitOne(t, ts.URL, longScenario(1))
	code, body, held := heldGet(t, ts.URL, id, "10s")
	if code != http.StatusOK {
		t.Fatalf("held read: HTTP %d %s, want 200", code, body)
	}
	var st StatusResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Terminal() || st.ID != id {
		t.Fatalf("held read answered %+v, want the job still in flight", st)
	}
	if held < 40*time.Millisecond || held > 2*time.Second {
		t.Fatalf("held %v, want about half the 100ms request timeout", held)
	}
	if code, body, _ := heldGet(t, ts.URL, id, "soon"); code != http.StatusBadRequest {
		t.Fatalf("unparseable wait: HTTP %d %s, want 400", code, body)
	}
}

// TestHeldStatusDoneOrUnknownAnswersAtOnce: only an in-flight job is held.
func TestHeldStatusDoneOrUnknownAnswersAtOnce(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCapacity: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(time.Minute)

	id := submitOne(t, ts.URL, fastScenario(1))
	waitDone(t, ts.URL, id)
	code, body, held := heldGet(t, ts.URL, id, "10s")
	if code != http.StatusOK || !strings.Contains(body, `"status":"done"`) || !strings.Contains(body, `"result"`) {
		t.Fatalf("done job: HTTP %d %s", code, body)
	}
	if held > time.Second {
		t.Fatalf("done job held %v, want an answer at once", held)
	}
	code, body, held = heldGet(t, ts.URL, "v1-unknown", "10s")
	if code != http.StatusNotFound || held > time.Second {
		t.Fatalf("unknown ID: HTTP %d after %v (%s), want 404 at once", code, held, body)
	}
}

// TestShutdownReleasesHeldWait: http.Server.Shutdown waits for active
// requests, so with ReleaseWaits registered an open wait on a long job is
// answered at once with its current status and Shutdown returns promptly —
// not after the wait bound.
func TestShutdownReleasesHeldWait(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCapacity: 4})
	arrived := make(chan struct{}, 1)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("wait") {
			arrived <- struct{}{}
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	ts.Config.RegisterOnShutdown(srv.ReleaseWaits)
	ts.Start()
	defer ts.Close()
	defer srv.Drain(10 * time.Millisecond)

	id := submitOne(t, ts.URL, longScenario(1))
	answered := make(chan *StatusResponse, 1)
	go func() {
		code, st, err := NewClient(ts.URL).StatusWait(context.Background(), id, 10*time.Second)
		if err != nil || code != http.StatusOK {
			st = nil
		}
		answered <- st
	}()
	<-arrived

	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	start := time.Now()
	if err := ts.Config.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("shutdown took %v with a held wait open, want prompt", took)
	}
	if st := <-answered; st == nil || st.Terminal() {
		t.Fatalf("released wait answered %+v, want 200 with the job in flight", st)
	}
}

// TestShutdownReleasesBatchStream: an open result stream on a running batch
// ends when the daemon releases its waits, so http.Server.Shutdown returns
// promptly instead of waiting out the batch.
func TestShutdownReleasesBatchStream(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCapacity: 4})
	arrived := make(chan struct{}, 1)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/results") {
			arrived <- struct{}{}
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	ts.Config.RegisterOnShutdown(srv.ReleaseWaits)
	ts.Start()
	defer ts.Close()
	defer srv.Drain(10 * time.Millisecond)

	sub, err := NewClient(ts.URL).SubmitBatch(context.Background(), sweep.Grid{
		Base: longScenario(1),
		Axes: []sweep.Axis{sweep.AxisSeeds([]uint64{1, 2})},
	})
	if err != nil {
		t.Fatal(err)
	}
	streamed := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/batches/" + sub.ID + "/results")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		streamed <- err
	}()
	<-arrived

	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	start := time.Now()
	if err := ts.Config.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("shutdown took %v with a batch stream open, want prompt", took)
	}
	if err := <-streamed; err != nil {
		t.Fatalf("released stream: %v", err)
	}
}

// TestBatchLeavesNoGoroutines: a finished batch holds no goroutine — its
// feeder and every shard waiter return with the last completion — and the
// drained manager reports clean.
func TestBatchLeavesNoGoroutines(t *testing.T) {
	srv := New(Config{Workers: 2, QueueCapacity: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := NewClient(ts.URL)
	sub, err := client.SubmitBatch(context.Background(), testGrid())
	if err != nil {
		t.Fatal(err)
	}
	st := waitBatch(t, client, sub.ID, "done")
	if st.Completed != st.Expanded {
		t.Fatalf("batch did not complete: %+v", st)
	}
	srv.Drain(time.Minute)
	if !srv.Batches().Drain(time.Second) {
		t.Fatal("batch manager did not drain")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "serve.(*Batches).") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch goroutines left after drain:\n%s", stacks)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchRepeatedPointSharesOneWaiter: a grid that repeats one point
// coalesces every repeat onto one job, and the repeats share that job's
// waiter instead of each parking a goroutine of its own; all of them
// retire with the job.
func TestBatchRepeatedPointSharesOneWaiter(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCapacity: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := NewClient(ts.URL)
	sub, err := client.SubmitBatch(context.Background(), sweep.Grid{
		Base: longScenario(1),
		Axes: []sweep.Axis{sweep.AxisSeeds([]uint64{7, 7, 7, 7, 7, 7, 7, 7})},
	})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		st, err := client.BatchStatus(context.Background(), sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Admitted == st.Expanded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never finished feeding: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	// A waiter is registered under the batch lock before its goroutine
	// starts, so the table counts the goroutines the feeder started.
	b, _ := srv.Batches().Get(sub.ID)
	b.mu.Lock()
	waiters, waiting := len(b.waiters), 0
	for _, w := range b.waiters {
		waiting += len(w.shards)
	}
	b.mu.Unlock()
	if waiters != 1 || waiting != 8 {
		t.Fatalf("%d waiters holding %d shards for one in-flight job, want 1 holding 8", waiters, waiting)
	}
	// Aborting the one job retires all eight shards through that waiter.
	srv.Drain(10 * time.Millisecond)
	st, err := client.BatchStatus(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != "done" || st.Dropped != st.Expanded || st.Coalesced != st.Expanded-1 {
		t.Fatalf("repeated point after drain: %+v, want all 8 dropped, 7 coalesced", st)
	}
}

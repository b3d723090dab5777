package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/serve"
)

// fastScenario is a few milliseconds of simulation; slowScenario a few
// hundred — long enough to kill a worker mid-run.
func fastScenario(seed uint64) wrtring.Scenario {
	return wrtring.Scenario{
		N: 6, Seed: seed, Duration: 2_000,
		Sources: []wrtring.Source{{Station: wrtring.AllStations, Kind: wrtring.CBR,
			Class: wrtring.Premium, Period: 50, Dest: wrtring.Opposite()}},
	}
}

func slowScenario(seed uint64) wrtring.Scenario {
	s := fastScenario(seed)
	s.Duration = 200_000
	return s
}

// fleet is an in-process cluster: N wrtserved instances under httptest plus
// a coordinator fronting them.
type fleet struct {
	t       *testing.T
	workers []*serve.Server
	servers []*httptest.Server
	coord   *Coordinator
	front   *httptest.Server
	client  *serve.Client
}

func newFleet(t *testing.T, n int, cfg Config) *fleet {
	t.Helper()
	return newFleetWith(t, n, serve.Config{Workers: 2, QueueCapacity: 64}, cfg)
}

// newFleetWith is newFleet with the workers' own configuration.
func newFleetWith(t *testing.T, n int, wcfg serve.Config, cfg Config) *fleet {
	t.Helper()
	return newFleetWrapped(t, n, wcfg, cfg, nil)
}

// newFleetWrapped is newFleetWith with worker i's HTTP handler passed
// through wrap(i, handler) when wrap is not nil.
func newFleetWrapped(t *testing.T, n int, wcfg serve.Config, cfg Config, wrap func(int, http.Handler) http.Handler) *fleet {
	t.Helper()
	f := &fleet{t: t}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i+1)
		wcfg.WorkerID = id
		srv := serve.New(wcfg)
		h := srv.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		f.workers = append(f.workers, srv)
		f.servers = append(f.servers, ts)
		cfg.Workers = append(cfg.Workers, WorkerSpec{ID: id, URL: ts.URL})
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Millisecond
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 20 * time.Millisecond
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	f.front = httptest.NewServer(coord.Handler())
	f.client = serve.NewClient(f.front.URL)
	// Once the test is over nothing reads the fleet's remaining work, so
	// the drains cut it short instead of letting it simulate to the end.
	t.Cleanup(func() {
		f.coord.Drain(10 * time.Millisecond)
		f.front.Close()
		for i, srv := range f.workers {
			f.servers[i].Close()
			srv.Drain(10 * time.Millisecond)
		}
	})
	return f
}

// workerAdmitted sums worker-side queue admissions — the count of actual
// simulations the fleet has started.
func (f *fleet) workerAdmitted() int64 {
	var total int64
	for _, srv := range f.workers {
		total += srv.Queue().Stats().Admitted
	}
	return total
}

func (f *fleet) submitAll(t *testing.T, batch []wrtring.Scenario) []string {
	t.Helper()
	code, resp, err := f.client.SubmitScenarios(context.Background(), batch)
	if err != nil || code != http.StatusOK {
		t.Fatalf("submit: HTTP %d, %v", code, err)
	}
	ids := make([]string, len(resp.Runs))
	for i, run := range resp.Runs {
		if run.ID == "" {
			t.Fatalf("run %d has no ID: %+v", i, run)
		}
		ids[i] = run.ID
	}
	return ids
}

func (f *fleet) waitAll(t *testing.T, ids []string) []*serve.StatusResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out := make([]*serve.StatusResponse, len(ids))
	for i, id := range ids {
		st, err := f.client.Wait(ctx, id, 2*time.Millisecond)
		if err != nil {
			t.Fatalf("waiting on %s: %v", id, err)
		}
		out[i] = st
	}
	return out
}

func localBytes(t *testing.T, s wrtring.Scenario) string {
	t.Helper()
	res, err := wrtring.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestClusterEndToEnd is the tentpole acceptance test: a batch through the
// coordinator is byte-identical to local execution, resubmission is served
// without a single new simulation, and a *fresh* coordinator over the same
// fleet inherits the cluster-wide cache via hash affinity alone.
func TestClusterEndToEnd(t *testing.T) {
	f := newFleet(t, 3, Config{})

	batch := make([]wrtring.Scenario, 10)
	for i := range batch {
		batch[i] = fastScenario(uint64(i + 1))
	}
	ids := f.submitAll(t, batch)
	results := f.waitAll(t, ids)
	for i, st := range results {
		if st.Status != "done" {
			t.Fatalf("job %d: %+v", i, st)
		}
		if string(st.Result) != localBytes(t, batch[i]) {
			t.Fatalf("job %d: cluster result diverges from local run", i)
		}
	}
	ran := f.workerAdmitted()
	if ran != int64(len(batch)) {
		t.Fatalf("fleet ran %d simulations for %d distinct specs", ran, len(batch))
	}
	st := f.coord.Stats()
	if st.Admitted != 10 || st.Completed != 10 || st.Failed != 0 || st.Dropped != 0 {
		t.Fatalf("coordinator stats: %+v", st)
	}

	// Resubmit through the same coordinator: answered from its own records.
	code, resp, err := f.client.SubmitScenarios(context.Background(), batch)
	if err != nil || code != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d, %v", code, err)
	}
	for i, run := range resp.Runs {
		if run.Status != serve.SubmitCached {
			t.Fatalf("resubmit run %d: %+v", i, run)
		}
	}
	if got := f.workerAdmitted(); got != ran {
		t.Fatalf("resubmit started %d new simulations", got-ran)
	}

	// A brand-new coordinator replica has no memory, but consistent hashing
	// routes every spec back to the worker whose cache shard holds it: all
	// remote cache hits, zero new simulations, identical bytes.
	var specs []WorkerSpec
	for i, ts := range f.servers {
		specs = append(specs, WorkerSpec{ID: fmt.Sprintf("w%d", i+1), URL: ts.URL})
	}
	coord2, err := New(Config{Workers: specs, PollInterval: 2 * time.Millisecond,
		HealthInterval: 20 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Drain(time.Minute)
	front2 := httptest.NewServer(coord2.Handler())
	defer front2.Close()
	cl2 := serve.NewClient(front2.URL)
	ctx := context.Background()
	code, resp, err = cl2.SubmitScenarios(ctx, batch)
	if err != nil || code != http.StatusOK {
		t.Fatalf("replica submit: HTTP %d, %v", code, err)
	}
	for i, run := range resp.Runs {
		st, err := cl2.Wait(ctx, run.ID, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != "done" || string(st.Result) != localBytes(t, batch[i]) {
			t.Fatalf("replica job %d: %+v", i, st)
		}
	}
	if got := f.workerAdmitted(); got != ran {
		t.Fatalf("replica pass started %d new simulations", got-ran)
	}
	if cs := coord2.Stats(); cs.RemoteCacheHits != int64(len(batch)) {
		t.Fatalf("replica remote cache hits = %d, want %d", cs.RemoteCacheHits, len(batch))
	}

	// The shared request validation also guards the coordinator's door.
	r, err := http.Post(front2.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"scenarios":[{"N":5,"Bogus":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field spec: HTTP %d", r.StatusCode)
	}
}

// TestClusterFailover kills the worker owning the largest share of a slow
// batch mid-flight: every job must still complete (redispatched to the next
// live ring owner), the counters must balance, and a redispatched job's
// bytes must match local execution exactly.
func TestClusterFailover(t *testing.T) {
	f := newFleet(t, 3, Config{})

	batch := make([]wrtring.Scenario, 9)
	for i := range batch {
		batch[i] = slowScenario(uint64(i + 1))
	}
	// Find the worker owning the most jobs — deterministic, the ring is
	// content-addressed — so the kill is guaranteed to strand work.
	owners := map[string]int{}
	victimOf := map[int]string{}
	for i, s := range batch {
		id, err := serve.Key(s)
		if err != nil {
			t.Fatal(err)
		}
		owner, ok := f.coord.ring.Owner(id, nil)
		if !ok {
			t.Fatal("no owner")
		}
		owners[owner]++
		victimOf[i] = owner
	}
	victim, best := "", 0
	for id, n := range owners {
		if n > best {
			victim, best = id, n
		}
	}

	ids := f.submitAll(t, batch)

	// Kill the victim: sever live connections and stop the listener.
	for i := range f.servers {
		if f.coord.order[i].id == victim {
			f.servers[i].CloseClientConnections()
			f.servers[i].Close()
		}
	}

	results := f.waitAll(t, ids)
	for i, st := range results {
		if st.Status != "done" {
			t.Fatalf("job %d (owner %s): %+v", i, victimOf[i], st)
		}
	}
	// One stranded job is checked byte-for-byte: redispatch re-ran it whole
	// on another worker, so determinism guarantees identical output.
	for i := range batch {
		if victimOf[i] == victim {
			if string(results[i].Result) != localBytes(t, batch[i]) {
				t.Fatalf("redispatched job %d diverges from local run", i)
			}
			break
		}
	}

	st := f.coord.Stats()
	if st.Admitted != int64(len(batch)) {
		t.Fatalf("admitted %d, want %d", st.Admitted, len(batch))
	}
	if st.Admitted != st.Completed+st.Failed+st.Dropped {
		t.Fatalf("conservation violated: %+v", st)
	}
	if st.Failed != 0 || st.Dropped != 0 {
		t.Fatalf("jobs lost to the kill: %+v", st)
	}
	if st.Redispatched == 0 && best > 0 {
		t.Fatalf("no redispatches despite killing the owner of %d jobs: %+v", best, st)
	}

	// The prober must have ejected the victim by now.
	deadline := time.Now().Add(10 * time.Second)
	for f.coord.Stats().LiveWorkers != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("victim never ejected: %+v", f.coord.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterShardSaturation: the per-worker bound rejects a spec whose
// shard is full with 429 + Retry-After even while other shards have room —
// cache affinity forbids spilling the key elsewhere.
func TestClusterShardSaturation(t *testing.T) {
	f := newFleet(t, 2, Config{MaxPerWorker: 1, RetryAfter: 7 * time.Second})

	// Probe scenarios until we have two owned by the same worker and one
	// owned by the other.
	var sameOwner []wrtring.Scenario
	var otherOwner *wrtring.Scenario
	firstOwner := ""
	for seed := uint64(1); seed < 100; seed++ {
		s := slowScenario(seed)
		id, err := serve.Key(s)
		if err != nil {
			t.Fatal(err)
		}
		owner, _ := f.coord.ring.Owner(id, nil)
		if firstOwner == "" {
			firstOwner = owner
		}
		if owner == firstOwner && len(sameOwner) < 2 {
			sameOwner = append(sameOwner, s)
		} else if owner != firstOwner && otherOwner == nil {
			s := s
			otherOwner = &s
		}
		if len(sameOwner) == 2 && otherOwner != nil {
			break
		}
	}
	if len(sameOwner) != 2 || otherOwner == nil {
		t.Fatal("could not find a shard-colliding pair within 100 seeds")
	}

	ctx := context.Background()
	code, resp, err := f.client.SubmitScenarios(ctx, sameOwner[:1])
	if err != nil || code != http.StatusOK {
		t.Fatalf("first submit: HTTP %d, %v", code, err)
	}
	firstID := resp.Runs[0].ID

	// Second spec on the same shard: rejected with the backpressure hint.
	raw, _ := json.Marshal(sameOwner[1])
	r, err := http.Post(f.front.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"scenarios":[`+string(raw)+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr serve.SubmitResponse
	if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusTooManyRequests || sr.Runs[0].Status != "rejected" {
		t.Fatalf("saturated shard: HTTP %d, %+v", r.StatusCode, sr.Runs)
	}
	if got := serve.RetryAfter(r.Header, 0); got != 7*time.Second {
		t.Fatalf("Retry-After = %v (header %q)", got, r.Header.Get("Retry-After"))
	}

	// The other shard still admits.
	code, resp, err = f.client.SubmitScenarios(ctx, []wrtring.Scenario{*otherOwner})
	if err != nil || code != http.StatusOK || resp.Runs[0].Status != serve.SubmitQueued {
		t.Fatalf("other shard: HTTP %d, %+v, %v", code, resp.Runs, err)
	}

	// Duplicate of an in-flight spec coalesces instead of counting against
	// the shard bound.
	code, resp, err = f.client.SubmitScenarios(ctx, sameOwner[:1])
	if err != nil || code != http.StatusOK || resp.Runs[0].Status != serve.SubmitCoalesced {
		t.Fatalf("duplicate submit: HTTP %d, %+v, %v", code, resp.Runs, err)
	}
	if resp.Runs[0].ID != firstID {
		t.Fatal("coalesced submission got a different ID")
	}
}

// TestClusterDrainConservation: a drain cut short by its deadline still
// satisfies admitted == completed + failed + dropped, and post-drain
// submissions answer 503 with Retry-After.
func TestClusterDrainConservation(t *testing.T) {
	f := newFleet(t, 2, Config{RetryAfter: 2 * time.Second})

	batch := make([]wrtring.Scenario, 6)
	for i := range batch {
		batch[i] = slowScenario(uint64(100 + i))
	}
	f.submitAll(t, batch)
	report := f.coord.Drain(30 * time.Millisecond)
	st := f.coord.Stats()
	if st.Admitted != st.Completed+st.Failed+st.Dropped {
		t.Fatalf("conservation violated after drain: %+v (report %+v)", st, report)
	}
	if !st.Draining {
		t.Fatal("coordinator not marked draining")
	}
	if report.Dropped == 0 || !report.DeadlineExceeded {
		t.Fatalf("30ms drain of slow jobs should drop work: %+v", report)
	}

	raw, _ := json.Marshal(fastScenario(999))
	r, err := http.Post(f.front.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"scenarios":[`+string(raw)+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: HTTP %d", r.StatusCode)
	}
	if serve.RetryAfter(r.Header, 0) != 2*time.Second {
		t.Fatalf("post-drain 503 missing Retry-After: %q", r.Header.Get("Retry-After"))
	}
}

// TestClusterNoLiveWorkers: with the whole fleet dead, submissions are
// refused with 503 rather than accepted into a void.
func TestClusterNoLiveWorkers(t *testing.T) {
	f := newFleet(t, 1, Config{HealthInterval: 10 * time.Millisecond})
	f.servers[0].CloseClientConnections()
	f.servers[0].Close()

	deadline := time.Now().Add(10 * time.Second)
	for f.coord.Stats().LiveWorkers != 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead worker never ejected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, _, err := f.coord.Submit(fastScenario(1))
	if err != ErrNoWorkers {
		t.Fatalf("submit with dead fleet: %v", err)
	}
	raw, _ := json.Marshal(fastScenario(1))
	r, err := http.Post(f.front.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"scenarios":[`+string(raw)+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead-fleet submit: HTTP %d", r.StatusCode)
	}
}

// TestClusterMetrics smoke-checks the aggregated exposition: cluster
// counters, per-worker gauges and the fleet cache section.
func TestClusterMetrics(t *testing.T) {
	f := newFleet(t, 2, Config{})
	ids := f.submitAll(t, []wrtring.Scenario{fastScenario(1), fastScenario(2)})
	f.waitAll(t, ids)

	r, err := http.Get(f.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"wrtcoord_admitted_total 2",
		"wrtcoord_completed_total 2",
		"wrtcoord_workers_live 2",
		`wrtcoord_worker_up{id="w1"} 1`,
		`wrtcoord_worker_up{id="w2"} 1`,
		"wrtcoord_fleet_admitted_total 2",
		"wrtcoord_job_latency_ms_count",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestStatusGhostWorker: a done job recorded against a worker ID the
// coordinator does not know must answer with the "result unavailable"
// recovery hint — the old code indexed c.workers[workerID] without a guard
// and dereferenced the nil handle, panicking the status endpoint.
func TestStatusGhostWorker(t *testing.T) {
	f := newFleet(t, 1, Config{})

	_, j, err := f.coord.jobs.Submit("ghost-job", wrtring.Scenario{}, func(bool, int) (string, string, error) {
		return serve.SubmitQueued, "ghost", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	f.coord.jobs.Start(j)
	f.coord.jobs.Finish(j, serve.Outcome{State: serve.StateDone})

	resp, err := http.Get(f.front.URL + "/v1/runs/ghost-job")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ghost-worker status: HTTP %d, want 200 with recovery hint", resp.StatusCode)
	}
	var st serve.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "ghost-job" || st.Status != serve.StateDone.String() {
		t.Fatalf("ghost-worker snapshot: %+v", st)
	}
	if !strings.Contains(st.Error, "result unavailable") || !strings.Contains(st.Error, "ghost") {
		t.Fatalf("missing recovery hint: %q", st.Error)
	}

	// The endpoint survived — an ordinary run still round-trips.
	ids := f.submitAll(t, []wrtring.Scenario{fastScenario(1)})
	if st := f.waitAll(t, ids)[0]; st.Result == nil {
		t.Fatalf("run after ghost lookup: %+v", st)
	}
}

// TestClusterPartialBatchKeepsAdmittedIDs mirrors the serve-side regression
// on the coordinator: with one worker and MaxPerWorker=1 the first slow
// scenario is admitted and the rest are deterministically saturated
// (coordinator depth only decrements at terminal state), so the 429 response
// must still carry the admitted job's ID alongside the rejections.
func TestClusterPartialBatchKeepsAdmittedIDs(t *testing.T) {
	f := newFleet(t, 1, Config{MaxPerWorker: 1, RetryAfter: 3 * time.Second})

	var req serve.SubmitRequest
	for seed := uint64(1); seed <= 3; seed++ {
		b, err := json.Marshal(slowScenario(seed))
		if err != nil {
			t.Fatal(err)
		}
		req.Scenarios = append(req.Scenarios, b)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.front.URL+"/v1/runs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated batch: HTTP %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", got)
	}
	var out serve.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("429 body is not a SubmitResponse: %v", err)
	}
	if len(out.Runs) != 3 {
		t.Fatalf("%d runs, want 3", len(out.Runs))
	}
	if out.Runs[0].Status != serve.SubmitQueued || out.Runs[0].ID == "" {
		t.Fatalf("admitted run lost: %+v", out.Runs[0])
	}
	for i := 1; i < 3; i++ {
		if out.Runs[i].Status != "rejected" || out.Runs[i].ID == "" {
			t.Fatalf("run %d: %+v, want rejected with ID", i, out.Runs[i])
		}
	}
	// The admitted job's ID is live: the coordinator tracks and finishes it.
	if st := f.waitAll(t, []string{out.Runs[0].ID})[0]; st.Result == nil {
		t.Fatalf("admitted run never produced a result: %+v", st)
	}
}

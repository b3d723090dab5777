package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/httpx"
	"github.com/rtnet/wrtring/internal/serve"
	"github.com/rtnet/wrtring/sweep"
)

// ownerOf is the primary ring owner of a scenario's key.
func ownerOf(t *testing.T, f *fleet, s wrtring.Scenario) string {
	t.Helper()
	key, err := serve.Key(s)
	if err != nil {
		t.Fatal(err)
	}
	owner, ok := f.coord.ring.Owner(key, nil)
	if !ok {
		t.Fatal("no owner")
	}
	return owner
}

// batchesCreated reports each worker's count of batches created.
func (f *fleet) batchesCreated() []int64 {
	out := make([]int64, len(f.workers))
	for i, srv := range f.workers {
		out[i] = srv.Batches().Stats().Created
	}
	return out
}

// waitAdmitted polls a coordinator batch until every shard has been
// accepted by an owner.
func waitAdmitted(t *testing.T, c *serve.Client, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.BatchStatus(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Admitted == st.Expanded {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("owners never accepted every shard: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// midScenario runs for tens of milliseconds: long enough that a sub-batch
// of a few of them is still running a few milliseconds after its owner
// accepted it.
func midScenario(seed uint64) wrtring.Scenario {
	s := fastScenario(seed)
	s.Duration = 40_000
	return s
}

func conserves(st serve.BatchStatusResponse) bool {
	return st.Completed+st.Failed+st.Dropped+st.Rejected == st.Expanded
}

// TestClusterBatchReplayAfterFinish: a finished coordinator batch larger
// than the coordinator's job table (serve.DefaultFinishedRecords) replays
// every result. The bytes live on the workers that ran the shards, and a
// replay reads them there.
func TestClusterBatchReplayAfterFinish(t *testing.T) {
	f := newFleet(t, 2, Config{})
	base := fastScenario(1)
	base.Duration = 64
	seeds := make([]uint64, 2600)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	grid := sweep.Grid{Base: base, Axes: []sweep.Axis{sweep.AxisSeeds(seeds), sweep.AxisProtocols()}}
	total := grid.Size()
	if total <= serve.DefaultFinishedRecords {
		t.Fatalf("a %d-point grid fits the coordinator's job table; grow it", total)
	}
	ctx := context.Background()
	sub, err := f.client.SubmitBatch(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	first := make([][]byte, total)
	if _, err := f.client.StreamBatchResults(ctx, sub.ID, func(l serve.BatchResultLine) error {
		if l.Status != serve.ShardCompleted || len(l.Result) == 0 {
			return fmt.Errorf("shard %d: %s %s", l.Index, l.Status, l.Error)
		}
		first[l.Index] = l.Result
		return nil
	}); err != nil {
		t.Fatalf("first stream: %v", err)
	}
	waitClusterBatch(t, f.client, sub.ID, "done")

	bad, firstBad := 0, ""
	n, err := f.client.StreamBatchResults(ctx, sub.ID, func(l serve.BatchResultLine) error {
		if l.Status != serve.ShardCompleted || !bytes.Equal(l.Result, first[l.Index]) {
			if bad == 0 {
				firstBad = fmt.Sprintf("shard %d: %s %q", l.Index, l.Status, l.Error)
			}
			bad++
		}
		return nil
	})
	if err != nil || int64(n) != total {
		t.Fatalf("replay: %d of %d lines, err %v", n, total, err)
	}
	if bad > 0 {
		t.Fatalf("%d of %d replayed lines came back without their bytes; first: %s", bad, total, firstBad)
	}
}

// TestClusterBatchRequestIDReachesOwners: the coordinator's calls to the
// owners of a batch carry the request ID of the POST that created it, so
// each owner's /debug/log shows its sub-batch POST and results stream under
// that ID.
func TestClusterBatchRequestIDReachesOwners(t *testing.T) {
	f := newFleet(t, 2, Config{})
	grid := sweep.Grid{Base: fastScenario(1), Axes: []sweep.Axis{sweep.AxisSeeds([]uint64{1, 2, 3, 4, 5, 6, 7, 8})}}
	points, err := grid.Points()
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]bool{}
	for _, p := range points {
		owners[ownerOf(t, f, p.Scenario)] = true
	}
	body, err := sweep.EncodeGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, f.front.URL+"/v1/batches", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(httpx.RequestIDHeader, "probe-22")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub serve.BatchSubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/batches: HTTP %d, %v", resp.StatusCode, err)
	}
	if _, err := f.client.StreamBatchResults(context.Background(), sub.ID, func(serve.BatchResultLine) error { return nil }); err != nil {
		t.Fatal(err)
	}

	for i, ts := range f.servers {
		id := fmt.Sprintf("w%d", i+1)
		if !owners[id] {
			continue
		}
		// A stream's access-log entry is written when its handler returns,
		// just after its last line.
		deadline := time.Now().Add(10 * time.Second)
		for {
			posted, streamed := false, false
			for _, e := range debugLog(t, ts.URL) {
				if e.RequestID != "probe-22" {
					continue
				}
				posted = posted || (e.Method == http.MethodPost && e.Path == "/v1/batches")
				streamed = streamed || (e.Method == http.MethodGet &&
					strings.HasPrefix(e.Path, "/v1/batches/") && strings.HasSuffix(e.Path, "/results"))
			}
			if posted && streamed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %s logged under probe-22: sub-batch POST %v, results stream %v", id, posted, streamed)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func debugLog(t *testing.T, base string) []httpx.Entry {
	t.Helper()
	resp, err := http.Get(base + "/debug/log")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Entries []httpx.Entry `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Entries
}

// TestClusterBatchFailoverMidStream: the server of the worker owning most of
// a grid is closed while its sub-batch streams. Its unfinished shards
// go to the other worker, every line still equals the local run byte for
// byte, and the batch conserves with nothing failed.
func TestClusterBatchFailoverMidStream(t *testing.T) {
	f := newFleet(t, 2, Config{})
	grid := sweep.Grid{Base: midScenario(1), Axes: []sweep.Axis{sweep.AxisSeeds([]uint64{1, 2, 3, 4, 5, 6, 7, 8})}}
	points, err := grid.Points()
	if err != nil {
		t.Fatal(err)
	}
	held := map[string]int{}
	for _, p := range points {
		held[ownerOf(t, f, p.Scenario)]++
	}
	victim := 0
	if held["w2"] > held["w1"] {
		victim = 1
	}
	local := sweep.Run(points, 2)

	ctx := context.Background()
	sub, err := f.client.SubmitBatch(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	waitAdmitted(t, f.client, sub.ID)
	f.servers[victim].CloseClientConnections()
	f.servers[victim].Close()

	lines := make(map[int64]serve.BatchResultLine)
	if _, err := f.client.StreamBatchResults(ctx, sub.ID, func(l serve.BatchResultLine) error {
		lines[l.Index] = l
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, o := range local {
		want, err := json.Marshal(o.Result)
		if err != nil {
			t.Fatal(err)
		}
		if l := lines[int64(i)]; l.Status != serve.ShardCompleted || !bytes.Equal(l.Result, want) {
			t.Fatalf("shard %d: %s %q; bytes equal to the local run: %v", i, l.Status, l.Error, bytes.Equal(l.Result, want))
		}
	}
	st := waitClusterBatch(t, f.client, sub.ID, "done")
	if !conserves(*st) || st.Failed != 0 || st.Completed != st.Expanded {
		t.Fatalf("after the kill: %+v", st)
	}
	if cs := f.coord.Stats(); cs.Redispatched == 0 {
		t.Fatalf("no shard moved off the killed owner of %d points: %+v", held[fmt.Sprintf("w%d", victim+1)], cs)
	}
}

// TestClusterBatchCancelConserves: a cancel landing mid-batch reaches every
// owner as a DELETE. The coordinator reads on until each owner's sub-batch
// has finished, and both the coordinator's batch and every sub-batch close
// their books: expanded = completed + failed + dropped + rejected.
func TestClusterBatchCancelConserves(t *testing.T) {
	f := newFleetWith(t, 2, serve.Config{Workers: 1, QueueCapacity: 1}, Config{})
	seeds := make([]uint64, 12)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	grid := sweep.Grid{Base: midScenario(1), Axes: []sweep.Axis{sweep.AxisSeeds(seeds)}}
	ctx := context.Background()
	sub, err := f.client.SubmitBatch(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	waitAdmitted(t, f.client, sub.ID)
	if _, err := f.client.CancelBatch(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	var st *serve.BatchStatusResponse
	for deadline := time.Now().Add(60 * time.Second); ; {
		if st, err = f.client.BatchStatus(ctx, sub.ID); err != nil {
			t.Fatal(err)
		}
		if conserves(*st) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancelled batch never settled: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.Status != "cancelled" || st.Rejected == 0 {
		t.Fatalf("cancelled batch: %+v, want status cancelled with shards rejected", st)
	}
	var fed int64
	for i, srv := range f.workers {
		b, ok := srv.Batches().Get("b-1")
		if !ok {
			continue // an owner of no points got no sub-batch
		}
		ws := b.Status()
		if ws.Status != "cancelled" || !conserves(ws) {
			t.Fatalf("w%d sub-batch after the cancel: %+v", i+1, ws)
		}
		fed += ws.Expanded
	}
	if fed != st.Expanded {
		t.Fatalf("owners' sub-batches hold %d shards, the batch %d", fed, st.Expanded)
	}
}

// TestClusterBatchOneSubBatchPerOwner: a grid that repeats one point, and a
// grid whose points all hash to one owner, each cost exactly one sub-batch
// on each owner that holds points and none elsewhere. The repeats coalesce
// on their owner into one simulation.
func TestClusterBatchOneSubBatchPerOwner(t *testing.T) {
	f := newFleet(t, 2, Config{})
	var w1Seeds []uint64
	for seed := uint64(100); len(w1Seeds) < 6; seed++ {
		if ownerOf(t, f, fastScenario(seed)) == "w1" {
			w1Seeds = append(w1Seeds, seed)
		}
	}
	for _, tc := range []struct {
		name  string
		seeds []uint64
		runs  int64
	}{
		{"repeated point", []uint64{7, 7, 7, 7, 7, 7}, 1},
		{"one owner", w1Seeds, int64(len(w1Seeds))},
	} {
		grid := sweep.Grid{Base: fastScenario(1), Axes: []sweep.Axis{sweep.AxisSeeds(tc.seeds)}}
		points, err := grid.Points()
		if err != nil {
			t.Fatal(err)
		}
		holds := map[string]bool{}
		for _, p := range points {
			holds[ownerOf(t, f, p.Scenario)] = true
		}
		before, ranBefore := f.batchesCreated(), f.workerAdmitted()
		sub, err := f.client.SubmitBatch(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.client.StreamBatchResults(context.Background(), sub.ID, func(l serve.BatchResultLine) error {
			if l.Status != serve.ShardCompleted || string(l.Result) != localBytes(t, points[l.Index].Scenario) {
				return fmt.Errorf("shard %d: %s %s", l.Index, l.Status, l.Error)
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st := waitClusterBatch(t, f.client, sub.ID, "done"); st.Completed != st.Expanded {
			t.Fatalf("%s: %+v", tc.name, st)
		}
		after := f.batchesCreated()
		for i := range after {
			want := int64(0)
			if holds[fmt.Sprintf("w%d", i+1)] {
				want = 1
			}
			if got := after[i] - before[i]; got != want {
				t.Fatalf("%s: w%d got %d sub-batches, want %d", tc.name, i+1, got, want)
			}
		}
		if ran := f.workerAdmitted() - ranBefore; ran != tc.runs {
			t.Fatalf("%s: the fleet ran %d simulations, want %d", tc.name, ran, tc.runs)
		}
	}
}

// TestClusterBatchHungOwner: an owner that accepts its sub-batch and then
// answers nothing more, with its connections left open, is ejected by the
// health prober, and that ends its sub-batch stream. Its shards finish on
// the other worker byte for byte, and the batch conserves with nothing
// failed.
func TestClusterBatchHungOwner(t *testing.T) {
	var victim atomic.Int32
	var hung atomic.Bool
	victim.Store(-1)
	release := make(chan struct{})
	wrap := func(i int, next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if int32(i) == victim.Load() {
				if hung.Load() {
					select {
					case <-release:
					case <-r.Context().Done():
					}
					return
				}
				if r.Method == http.MethodPost && r.URL.Path == "/v1/batches" {
					defer hung.Store(true)
				}
			}
			next.ServeHTTP(w, r)
		})
	}
	f := newFleetWrapped(t, 2, serve.Config{Workers: 2, QueueCapacity: 64},
		Config{RequestTimeout: time.Second}, wrap)
	t.Cleanup(func() { close(release) }) // runs before the fleet's cleanup

	grid := sweep.Grid{Base: fastScenario(1), Axes: []sweep.Axis{sweep.AxisSeeds([]uint64{1, 2, 3, 4, 5, 6, 7, 8})}}
	points, err := grid.Points()
	if err != nil {
		t.Fatal(err)
	}
	held := map[string]int{}
	for _, p := range points {
		held[ownerOf(t, f, p.Scenario)]++
	}
	if held["w2"] > held["w1"] {
		victim.Store(1)
	} else {
		victim.Store(0)
	}
	local := sweep.Run(points, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sub, err := f.client.SubmitBatch(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	lines := make(map[int64]serve.BatchResultLine)
	if _, err := f.client.StreamBatchResults(ctx, sub.ID, func(l serve.BatchResultLine) error {
		lines[l.Index] = l
		return nil
	}); err != nil {
		t.Fatalf("stream of a batch with a hung owner: %v (%d of %d lines)", err, len(lines), len(points))
	}
	if !hung.Load() {
		t.Fatal("the victim never accepted its sub-batch")
	}
	for i, o := range local {
		want, err := json.Marshal(o.Result)
		if err != nil {
			t.Fatal(err)
		}
		if l := lines[int64(i)]; l.Status != serve.ShardCompleted || !bytes.Equal(l.Result, want) {
			t.Fatalf("shard %d: %s %q; bytes equal to the local run: %v", i, l.Status, l.Error, bytes.Equal(l.Result, want))
		}
	}
	st := waitClusterBatch(t, f.client, sub.ID, "done")
	if !conserves(*st) || st.Failed != 0 || st.Completed != st.Expanded {
		t.Fatalf("after the hang: %+v", st)
	}
	if cs := f.coord.Stats(); cs.Redispatched == 0 || cs.LiveWorkers != 1 {
		t.Fatalf("the hung owner was not ejected and failed over: %+v", cs)
	}
}

// TestClusterSingleRunDuringSubBatch: an owner's sub-batch larger than its
// queue leaves the queue's headroom free, so a single run of another key
// the same worker owns is admitted there on its first submit and completes
// on its owner, rather than being refused (429), retried and moved off its
// ring owner. Three single runs go one after another, each while the queue
// holds all the shards the sub-batch may put there.
func TestClusterSingleRunDuringSubBatch(t *testing.T) {
	f := newFleetWith(t, 2, serve.Config{Workers: 1, QueueCapacity: 8},
		Config{RetryAfter: time.Millisecond, HealthInterval: time.Second})
	shard := func(seed uint64) wrtring.Scenario {
		s := fastScenario(seed)
		s.Duration = 20_000
		return s
	}
	var seeds []uint64
	for seed := uint64(1); len(seeds) < 32; seed++ {
		if ownerOf(t, f, shard(seed)) == "w1" {
			seeds = append(seeds, seed)
		}
	}
	ctx := context.Background()
	sub, err := f.client.SubmitBatch(ctx, sweep.Grid{Base: shard(1), Axes: []sweep.Axis{sweep.AxisSeeds(seeds)}})
	if err != nil {
		t.Fatal(err)
	}
	// The queue is full once the sub-batch has refilled it after its first
	// shard started: 7 queued of 8, and at least 9 shards admitted.
	w1 := f.workers[0]
	full := func() bool {
		b, ok := w1.Batches().Get("b-1")
		return ok && b.Status().Admitted >= 9 && w1.Queue().Stats().Depth >= 7
	}
	for seed, runs := uint64(1), 0; runs < 3; seed++ {
		single := fastScenario(seed)
		if ownerOf(t, f, single) != "w1" {
			continue
		}
		runs++
		for deadline := time.Now().Add(30 * time.Second); !full(); {
			if time.Now().After(deadline) {
				t.Fatalf("w1's queue never filled: %+v", w1.Queue().Stats())
			}
			time.Sleep(time.Millisecond)
		}
		ids := f.submitAll(t, []wrtring.Scenario{single})
		st := f.waitAll(t, ids)[0]
		if st.Status != serve.StateDone.String() || string(st.Result) != localBytes(t, single) {
			t.Fatalf("single run %d during the sub-batch: %s %q", runs, st.Status, st.Error)
		}
		if js, _ := f.coord.jobs.Status(ids[0]); js.Worker != "w1" || f.coord.Stats().Redispatched != 0 {
			t.Fatalf("single run %d ended on %s after %d moves, want its owner w1", runs, js.Worker, f.coord.Stats().Redispatched)
		}
		for _, e := range debugLog(t, f.servers[0].URL) {
			if e.Method == http.MethodPost && e.Path == "/v1/runs" && e.Status == http.StatusTooManyRequests {
				t.Fatalf("w1 refused a single run with 429 while its sub-batch ran (run %d)", runs)
			}
		}
	}
	if _, err := f.client.CancelBatch(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
}

// TestClusterBatchKeysAnswerCached: once a coordinator batch has completed
// a key, a single run of it is answered cached by the coordinator without
// a dispatch, and its status carries the bytes from the worker that ran
// it, although batch shards never enter the coordinator's job table.
func TestClusterBatchKeysAnswerCached(t *testing.T) {
	f := newFleet(t, 2, Config{})
	grid := sweep.Grid{Base: fastScenario(1), Axes: []sweep.Axis{sweep.AxisSeeds([]uint64{1, 2, 3, 4, 5, 6, 7, 8})}}
	points, err := grid.Points()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sub, err := f.client.SubmitBatch(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.client.StreamBatchResults(ctx, sub.ID, func(serve.BatchResultLine) error { return nil }); err != nil {
		t.Fatal(err)
	}
	ran := f.workerAdmitted()
	for _, p := range points {
		code, resp, err := f.client.SubmitScenarios(ctx, []wrtring.Scenario{p.Scenario})
		if err != nil || code != http.StatusOK || resp.Runs[0].Status != serve.SubmitCached {
			t.Fatalf("%s after its batch: HTTP %d, %+v, %v; want cached", p.Name, code, resp, err)
		}
		code, st, err := f.client.Status(ctx, resp.Runs[0].ID)
		if err != nil || code != http.StatusOK || st.Status != serve.StateDone.String() ||
			string(st.Result) != localBytes(t, p.Scenario) {
			t.Fatalf("%s status: HTTP %d, %+v, %v", p.Name, code, st, err)
		}
	}
	if got := f.workerAdmitted() - ran; got != 0 {
		t.Fatalf("single runs of batch keys admitted %d jobs on the workers, want 0", got)
	}
	if js := f.coord.jobs.Stats(); js.Admitted != 0 {
		t.Fatalf("the coordinator's job table admitted %d jobs, want 0", js.Admitted)
	}
}

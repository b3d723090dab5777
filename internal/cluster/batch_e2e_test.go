package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"github.com/rtnet/wrtring/internal/serve"
	"github.com/rtnet/wrtring/sweep"
)

func waitClusterBatch(t *testing.T, c *serve.Client, id, want string) *serve.BatchStatusResponse {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, err := c.BatchStatus(context.Background(), id)
		if err != nil {
			t.Fatalf("batch status: %v", err)
		}
		if st.Status == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("batch %s never reached %q", id, want)
	return nil
}

// TestClusterBatchEndToEnd is the PR's acceptance scenario: a grid spec
// submitted to POST /v1/batches on a 3-worker cluster streams results
// byte-identical to the same grid run locally via sweep.Run, and a second
// submission of the same spec completes with zero new simulations — every
// shard answered from the fleet's composed cache.
func TestClusterBatchEndToEnd(t *testing.T) {
	f := newFleet(t, 3, Config{})

	grid := sweep.Grid{
		Base: fastScenario(1),
		Axes: []sweep.Axis{
			sweep.AxisN([]int{4, 6}),
			sweep.AxisSeeds([]uint64{1, 2, 3}),
			sweep.AxisProtocols(),
		},
	}
	points, err := grid.Points()
	if err != nil {
		t.Fatal(err)
	}
	local := sweep.Run(points, 4)

	sub, err := f.client.SubmitBatch(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Expanded != int64(len(points)) {
		t.Fatalf("expanded %d, want %d", sub.Expanded, len(points))
	}
	lines := make(map[int64]serve.BatchResultLine)
	n, err := f.client.StreamBatchResults(context.Background(), sub.ID, func(l serve.BatchResultLine) error {
		lines[l.Index] = l
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if n != len(points) {
		t.Fatalf("streamed %d lines, want %d", n, len(points))
	}
	for i, o := range local {
		line, ok := lines[int64(i)]
		if !ok || line.Status != serve.ShardCompleted {
			t.Fatalf("shard %d: %+v", i, line)
		}
		want, err := json.Marshal(o.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line.Result, want) {
			t.Fatalf("shard %d (%s): cluster bytes differ from local run:\n got %s\nwant %s",
				i, line.Name, line.Result, want)
		}
	}
	st := waitClusterBatch(t, f.client, sub.ID, "done")
	if st.Completed != st.Expanded {
		t.Fatalf("first pass accounting: %+v", st)
	}

	// Second pass: zero new simulations anywhere in the fleet.
	ranBefore := f.workerAdmitted()
	sub2, err := f.client.SubmitBatch(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitClusterBatch(t, f.client, sub2.ID, "done")
	if st2.Completed != st2.Expanded {
		t.Fatalf("second pass accounting: %+v", st2)
	}
	if st2.CacheHits+st2.Coalesced != st2.Expanded {
		// Every shard must be answered without new work: a submit-time cache
		// outcome (the coordinator remembers the done job) or a coalesce
		// (impossible here — nothing is in flight), never a fresh dispatch.
		t.Fatalf("second pass ran new work: %+v", st2)
	}
	if ranAfter := f.workerAdmitted(); ranAfter != ranBefore {
		t.Fatalf("second pass started %d new simulations on the fleet", ranAfter-ranBefore)
	}
	n2, err := f.client.StreamBatchResults(context.Background(), sub2.ID, func(l serve.BatchResultLine) error {
		if !bytes.Equal(l.Result, lines[l.Index].Result) {
			t.Errorf("shard %d: second-pass bytes differ", l.Index)
		}
		return nil
	})
	if err != nil || n2 != len(points) {
		t.Fatalf("second stream: %d lines, err %v", n2, err)
	}
}

// TestClusterBatchDrainConservation: a coordinator drain landing mid-batch
// still closes the books — expanded = completed + failed + dropped +
// rejected — and the partial results stay streamable.
func TestClusterBatchDrainConservation(t *testing.T) {
	f := newFleet(t, 2, Config{MaxPerWorker: 2})

	grid := sweep.Grid{
		Base: slowScenario(1),
		Axes: []sweep.Axis{sweep.AxisSeeds([]uint64{1, 2, 3, 4, 5, 6, 7, 8})},
	}
	sub, err := f.client.SubmitBatch(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := f.client.BatchStatus(context.Background(), sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Admitted >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never started feeding")
		}
		time.Sleep(time.Millisecond)
	}
	f.coord.Drain(50 * time.Millisecond)

	st, err := f.client.BatchStatus(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status == "running" {
		t.Fatalf("batch still running after coordinator drain: %+v", st)
	}
	if got := st.Completed + st.Failed + st.Dropped + st.Rejected; got != st.Expanded {
		t.Fatalf("conservation broken: %d terminal of %d: %+v", got, st.Expanded, st)
	}
	n, err := f.client.StreamBatchResults(context.Background(), sub.ID, func(serve.BatchResultLine) error { return nil })
	if err != nil {
		t.Fatalf("stream after drain: %v", err)
	}
	if int64(n) != st.Expanded {
		t.Fatalf("stream replayed %d of %d shards", n, st.Expanded)
	}
}

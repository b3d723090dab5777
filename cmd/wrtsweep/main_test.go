package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/serve"
	"github.com/rtnet/wrtring/sweep"
)

// TestRunBatchMatchesLocal: -server sends a grid larger than one
// POST /v1/runs may carry (serve.DefaultMaxBatch) as one batch, and the
// reassembled CSV is byte-identical to the in-process sweep.
func TestRunBatchMatchesLocal(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(time.Minute)

	seeds := make([]uint64, 150)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	grid := sweep.Grid{
		Base: wrtring.Scenario{N: 6, Seed: 1, Duration: 500,
			Sources: []wrtring.Source{{Station: wrtring.AllStations, Kind: wrtring.CBR,
				Class: wrtring.Premium, Period: 50, Dest: wrtring.Opposite()}}},
		Axes: []sweep.Axis{sweep.AxisSeeds(seeds), sweep.AxisProtocols()},
	}
	pts, err := grid.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) <= serve.DefaultMaxBatch {
		t.Fatalf("grid has %d points; it must exceed the %d-scenario submit limit", len(pts), serve.DefaultMaxBatch)
	}

	var done int
	outs, err := runBatch(context.Background(), ts.URL, grid, pts, func(n, total int, _ sweep.Outcome) {
		done = n
		if total != len(pts) {
			t.Errorf("progress total %d, want %d", total, len(pts))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != len(pts) {
		t.Fatalf("progress reported %d of %d points", done, len(pts))
	}
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Point.Name, o.Err)
		}
	}
	if got, want := sweep.CSV(outs), sweep.CSV(sweep.Run(pts, 2)); got != want {
		t.Fatalf("remote CSV differs from the in-process run:\n got %q\nwant %q", got, want)
	}
}

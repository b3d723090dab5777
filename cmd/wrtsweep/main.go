// Command wrtsweep runs a parameter sweep across a worker pool and prints
// the results as CSV — the bulk-experiment front end for the repository.
//
// Examples:
//
//	wrtsweep -over n -values 5,10,20,50 -protocols both
//	wrtsweep -over seed -values 1,2,3,4,5 -n 16 -load saturate
//	wrtsweep -over quota -values 1:1,2:2,4:2 -n 12
//
// With -server the grid is submitted as one POST /v1/batches to a wrtserved
// instance or a wrtcoord cluster (both speak the same batch API), so
// repeated sweeps hit the service's content-addressed cache instead of
// re-simulating:
//
//	wrtsweep -over n -values 5,10,20,50 -server http://localhost:8090
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/serve"
	"github.com/rtnet/wrtring/sweep"
)

func main() {
	over := flag.String("over", "n", "sweep dimension: n | seed | quota")
	values := flag.String("values", "5,10,20", "comma-separated values (quota uses l:k pairs)")
	protocols := flag.String("protocols", "wrt", "wrt | tpt | both")
	n := flag.Int("n", 8, "stations (fixed dimensions)")
	l := flag.Int("l", 2, "real-time quota")
	k := flag.Int("k", 2, "best-effort quota")
	dur := flag.Int64("dur", 30_000, "slots per run")
	seed := flag.Uint64("seed", 1, "base seed")
	load := flag.String("load", "cbr", "cbr | saturate | none")
	jobs := flag.Int("jobs", runtime.NumCPU(),
		"parallel simulation workers; 1 reproduces the serial run byte-for-byte")
	progress := flag.Bool("progress", false, "report per-run completion on stderr")
	server := flag.String("server", "",
		"run the sweep remotely, as one batch, against a wrtserved or wrtcoord URL instead of in-process")
	flag.Parse()

	base := wrtring.Scenario{N: *n, L: *l, K: *k, Seed: *seed, Duration: *dur}
	switch *load {
	case "cbr":
		base.Sources = []wrtring.Source{{Station: wrtring.AllStations, Kind: wrtring.CBR,
			Class: wrtring.Premium, Period: 50, Dest: wrtring.Opposite()}}
	case "saturate":
		base.Sources = []wrtring.Source{
			{Station: wrtring.AllStations, Class: wrtring.Premium, Dest: wrtring.Opposite(), Preload: int(*dur)},
			{Station: wrtring.AllStations, Class: wrtring.BestEffort, Dest: wrtring.Opposite(), Preload: int(*dur)},
		}
	case "none":
	default:
		fail("unknown load %q", *load)
	}

	// The flags build a serializable grid spec, and the points expand from
	// it — the same spec and the same expansion the batch API uses
	// server-side, so -server and local runs are provably the same point set
	// in the same order.
	var axis sweep.Axis
	fields := strings.Split(*values, ",")
	switch *over {
	case "n":
		var ns []int
		for _, f := range fields {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 3 {
				fail("bad station count %q", f)
			}
			ns = append(ns, v)
		}
		axis = sweep.AxisN(ns)
	case "seed":
		var seeds []uint64
		for _, f := range fields {
			v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				fail("bad seed %q", f)
			}
			seeds = append(seeds, v)
		}
		axis = sweep.AxisSeeds(seeds)
	case "quota":
		var lks [][2]int
		for _, f := range fields {
			parts := strings.SplitN(strings.TrimSpace(f), ":", 2)
			if len(parts) != 2 {
				fail("quota value %q is not l:k", f)
			}
			lv, err1 := strconv.Atoi(parts[0])
			kv, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil {
				fail("quota value %q is not numeric l:k", f)
			}
			lks = append(lks, [2]int{lv, kv})
		}
		axis = sweep.AxisQuota(lks)
	default:
		fail("unknown sweep dimension %q", *over)
	}

	axes := []sweep.Axis{axis}
	switch *protocols {
	case "wrt":
	case "tpt":
		base.Protocol = wrtring.TPT
	case "both":
		axes = append(axes, sweep.AxisProtocols())
	default:
		fail("unknown protocols %q", *protocols)
	}
	grid := sweep.Grid{Base: base, Axes: axes}
	pts, err := grid.Points()
	if err != nil {
		fail("building sweep: %v", err)
	}

	var onDone func(done, total int, o sweep.Outcome)
	if *progress {
		onDone = func(done, total int, o sweep.Outcome) {
			status := "ok"
			if o.Err != nil {
				status = o.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s: %s\n", done, total, o.Point.Name, status)
		}
	}
	var outs []sweep.Outcome
	if *server != "" {
		if outs, err = runBatch(context.Background(), *server, grid, pts, onDone); err != nil {
			fail("%v", err)
		}
	} else {
		outs = sweep.RunProgress(pts, *jobs, onDone)
	}
	fmt.Print(sweep.CSV(outs))
	for _, o := range outs {
		if o.Err != nil {
			os.Exit(1)
		}
	}
}

// runBatch submits the whole grid spec as one POST /v1/batches and streams
// the results back as NDJSON. The server expands the identical spec with the
// identical expansion code (sweep.Grid.Points), so the shard indices line up
// one-to-one with the locally expanded pts — results are reassembled into
// input order as the completion-ordered stream arrives. Determinism keeps
// the bytes identical to a local run, so the CSV is the same either way.
func runBatch(ctx context.Context, serverURL string, grid sweep.Grid, pts []sweep.Point, onDone func(done, total int, o sweep.Outcome)) ([]sweep.Outcome, error) {
	client := serve.NewClient(serverURL)
	sub, err := client.SubmitBatch(ctx, grid)
	if err != nil {
		return nil, fmt.Errorf("submitting batch to %s: %w", serverURL, err)
	}
	if sub.Expanded != int64(len(pts)) {
		return nil, fmt.Errorf("server expanded %d points, local expansion has %d — version skew between client and server",
			sub.Expanded, len(pts))
	}

	outs := make([]sweep.Outcome, len(pts))
	for i := range pts {
		outs[i].Point = pts[i]
	}
	done := 0
	n, err := client.StreamBatchResults(ctx, sub.ID, func(l serve.BatchResultLine) error {
		if l.Index < 0 || l.Index >= int64(len(pts)) {
			return fmt.Errorf("stream shard index %d out of range", l.Index)
		}
		o := &outs[l.Index]
		switch {
		case l.Status != serve.ShardCompleted:
			o.Err = fmt.Errorf("remote shard %s: %s", l.Status, l.Error)
		case l.Error != "":
			o.Err = fmt.Errorf("remote shard done but result unavailable: %s", l.Error)
		default:
			var res wrtring.Result
			if err := json.Unmarshal(l.Result, &res); err != nil {
				o.Err = fmt.Errorf("decoding remote result: %w", err)
			} else {
				o.Result = &res
			}
		}
		done++
		if onDone != nil {
			onDone(done, len(pts), *o)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("streaming batch %s: %w", sub.ID, err)
	}
	if n != len(pts) {
		return nil, fmt.Errorf("batch stream ended after %d of %d shards", n, len(pts))
	}
	return outs, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// smokeConfig shrinks a run to one 200 ms round with small pools, keeping
// every check of the full benchmark on.
func smokeConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.seconds, cfg.rounds, cfg.warmup = 0.2, 1, 0
	cfg.minSetups, cfg.maxSetups = 1, 1
	cfg.workDir = t.TempDir()
	cfg.gridSeeds, cfg.batchSeeds, cfg.longSlots = 8, 4, 3000
	cfg.hotPool, cfg.hotRate, cfg.diskPool = 32, 200, 256
	cfg.verifyOps = 2
	cfg.sample, cfg.replayBudget, cfg.probeOps = 16, 20*time.Millisecond, 2
	return cfg
}

// TestSmokeEveryWorkload runs every workload for one short round with the
// oracle on: it keeps the benchmark compiling, correct, and reporting every
// metric it promises. The traced runs, which add the service probe and the
// layer replays, are skipped under -short.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				if traced && testing.Short() {
					t.Skip("traced run skipped in -short mode")
				}
				cfg := smokeConfig(t)
				cfg.trace = traced
				rec, err := runWorkload(cfg, w, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
					t.Fatalf("result %+v, problems %v", rec.Result, rec.Problems)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(rec.Result.Metrics) != len(want) {
					t.Errorf("%d metrics reported, want %d", len(rec.Result.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := rec.Result.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
					}
				}
				if !traced {
					for _, d := range endToEnd {
						if rec.EndToEnd[d.name] <= 0 {
							t.Errorf("%s = %v, want > 0", d.name, rec.EndToEnd[d.name])
						}
					}
					return
				}
				if _, err := os.Stat(rec.TraceFile); err != nil {
					t.Errorf("span file: %v", err)
				}
				checkPredictions(t, w.name, rec.Layers)
			})
		}
	}
}

// checkPredictions asserts the per-layer values each workload is built to
// produce.
func checkPredictions(t *testing.T, workload string, m map[string]float64) {
	t.Helper()
	if m["store.corruptions"] != 0 || m["cluster.redispatched"] != 0 {
		t.Errorf("corruptions %v, redispatched %v; want 0", m["store.corruptions"], m["cluster.redispatched"])
	}
	for _, name := range []string{"sim.slots_per_s", "wrtring.build_us", "runner.run_us", "store.get_us",
		"worker.http.status_ms", "coord.http.submit_ms", "cluster.dispatch_ms", "batch.first_line_ms", "client.submit_ms"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0 on every workload", name, m[name])
		}
	}
	switch workload {
	case "hits-hot":
		if m["queue.admitted_per_op"] != 0 || m["cache.hit_ratio"] != 1 {
			t.Errorf("hits-hot: admitted_per_op %v, hit_ratio %v; want 0 and 1", m["queue.admitted_per_op"], m["cache.hit_ratio"])
		}
	case "sweep-cold":
		if m["cache.hit_ratio"] != 0 || m["batch.cache_hit_shards"] != 0 || m["cluster.remote_cache_hits"] != 0 {
			t.Errorf("sweep-cold: hit_ratio %v, cache_hit_shards %v, remote hits %v; want 0",
				m["cache.hit_ratio"], m["batch.cache_hit_shards"], m["cluster.remote_cache_hits"])
		}
	case "long-sim":
		if m["queue.admitted_per_op"] != 2 || m["client.retries_per_op"] != 0 {
			t.Errorf("long-sim: admitted_per_op %v, retries_per_op %v; want 2 (one run per protocol) and 0",
				m["queue.admitted_per_op"], m["client.retries_per_op"])
		}
	case "disk-spill":
		if m["cache.disk_hit_frac"] < 0.7 {
			t.Errorf("disk-spill: disk_hit_frac %v, want >= 0.7", m["cache.disk_hit_frac"])
		}
	case "sweep-local":
		if m["queue.admitted_per_op"] != 0 || m["worker.http.requests_per_op"] > 1 {
			t.Errorf("sweep-local: admitted_per_op %v, worker requests per op %v; want no service work",
				m["queue.admitted_per_op"], m["worker.http.requests_per_op"])
		}
	}
}

// TestCorruptedReferenceExitsNonZero flips one byte of the reference every
// hits-hot op is checked against: the run must report itself incorrect and
// the command must exit non-zero.
func TestCorruptedReferenceExitsNonZero(t *testing.T) {
	var hot workload
	for _, w := range workloads {
		if w.name == "hits-hot" {
			hot = *w
		}
	}
	next := hot.next
	hot.next = func(b *bench, g *gen) input {
		in := next(b, g)
		in.ref = bytes.Clone(in.ref)
		in.ref[len(in.ref)/2] ^= 1
		return in
	}
	var out bytes.Buffer
	code := benchMain([]string{"--workload", "hits-hot", "--seconds", "0.2"}, smokeConfig(t), []*workload{&hot}, &out, io.Discard)
	if code == 0 {
		t.Fatalf("exit status 0 on a corrupted reference\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("result %+v, want correct=false with failed ops", res)
	}
}

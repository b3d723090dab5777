// Command wrtsoak is the load harness for the scenario service: it drives a
// wrtserved instance or a wrtcoord cluster (same API, same client) with a
// configurable request rate, concurrency and cache hit/miss mix for a fixed
// duration, and reports client-side latency histograms. Determinism is what
// makes the hit/miss mix meaningful — a scenario drawn from the fixed hot
// pool is byte-identical on every submission, so after the first round it
// must be answered by the content-addressed cache, while miss traffic draws
// a fresh seed per request and always costs a simulation.
//
//	wrtsoak -server http://localhost:8080 -duration 10s -concurrency 8 -hit 0.5
//	wrtsoak -server http://localhost:8090 -mode batch -rps 20 -json soak.json
//
// Exit status is 1 when the run completes without a single success — the
// smoke-test contract: any live service yields nonzero throughput.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/serve"
	"github.com/rtnet/wrtring/internal/stats"
	"github.com/rtnet/wrtring/sweep"
)

// latencyCapMs bounds the histograms; anything slower than two minutes is
// recorded in the overflow bucket rather than lost.
const latencyCapMs = 120_000

func main() {
	server := flag.String("server", "", "wrtserved or wrtcoord base URL (required)")
	duration := flag.Duration("duration", 10*time.Second, "how long to generate load")
	concurrency := flag.Int("concurrency", 8, "parallel client workers")
	rps := flag.Float64("rps", 0, "target request rate across all workers (0 = closed loop, as fast as the service admits)")
	mode := flag.String("mode", "single", "single: one scenario per POST /v1/runs | batch: a grid per POST /v1/batches")
	hit := flag.Float64("hit", 0.5, "fraction of requests drawn from the hot seed pool (cache hits after warmup)")
	pool := flag.Uint64("pool", 16, "hot seed pool size for -hit traffic")
	n := flag.Int("n", 8, "stations per scenario")
	slots := flag.Int64("slots", 2_000, "simulated slots per scenario (controls per-run cost)")
	batchPoints := flag.Uint64("batch-points", 8, "seeds per grid in -mode batch")
	poll := flag.Duration("poll", 5*time.Millisecond, "pause before asking again when a held status read answers with the run unfinished, in -mode single")
	seed := flag.Int64("rand-seed", 1, "RNG seed for the hit/miss coin (the workload itself stays deterministic)")
	jsonPath := flag.String("json", "", "also write the summary as JSON to this file")
	flag.Parse()
	if *server == "" {
		fmt.Fprintln(os.Stderr, "wrtsoak: -server is required")
		os.Exit(2)
	}
	if *mode != "single" && *mode != "batch" {
		fmt.Fprintf(os.Stderr, "wrtsoak: unknown -mode %q\n", *mode)
		os.Exit(2)
	}
	if *hit < 0 || *hit > 1 {
		fmt.Fprintln(os.Stderr, "wrtsoak: -hit must be in [0,1]")
		os.Exit(2)
	}

	s := &soak{
		client:  serve.NewClient(*server),
		mode:    *mode,
		hitFrac: *hit,
		pool:    max(*pool, 1),
		n:       *n,
		slots:   *slots,
		points:  max(*batchPoints, 1),
		poll:    *poll,
		submit:  stats.NewHistogram(latencyCapMs),
		e2e:     stats.NewHistogram(latencyCapMs),
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	// Rate pacing: a token bucket fed at -rps. Workers take a token per
	// operation; with -rps 0 the channel is nil and receives never block, so
	// the run degenerates to a closed loop bounded only by -concurrency.
	var tokens chan struct{}
	if *rps > 0 {
		tokens = make(chan struct{}, *concurrency)
		interval := time.Duration(float64(time.Second) / *rps)
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					select {
					case tokens <- struct{}{}:
					default: // bucket full; shed the token rather than burst later
					}
				}
			}
		}()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker RNG: deterministic per (rand-seed, worker), no
			// cross-worker lock on the hit/miss coin.
			rng := rand.New(rand.NewSource(*seed + int64(w)<<32))
			for ctx.Err() == nil {
				if tokens != nil {
					select {
					case <-ctx.Done():
						return
					case <-tokens:
					}
				}
				if s.mode == "batch" {
					s.oneBatch(ctx, rng)
				} else {
					s.oneSingle(ctx, rng)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sum := s.summary(*server, elapsed, *concurrency, *rps)
	sum.print(os.Stdout)
	if *jsonPath != "" {
		b, err := json.MarshalIndent(sum, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "wrtsoak: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
	if sum.OK == 0 {
		fmt.Fprintln(os.Stderr, "wrtsoak: no request succeeded")
		os.Exit(1)
	}
}

// soak is the shared state of one load run. The histograms are
// stats.Histogram (not thread-safe) guarded by mu; counters are atomics so
// the hot path takes the lock only to record a latency sample.
type soak struct {
	client  *serve.Client
	mode    string
	hitFrac float64
	pool    uint64
	n       int
	slots   int64
	points  uint64
	poll    time.Duration

	missSeq atomic.Uint64 // next unique miss seed offset

	ok        atomic.Int64 // requests that reached a done result
	failed    atomic.Int64 // rejected, invalid, failed, dropped, transport errors
	cacheHits atomic.Int64 // answered from a cache (submit-time or coalesce-free done)
	coalesced atomic.Int64

	mu     sync.Mutex
	submit *stats.Histogram // POST round-trip (admission latency)
	e2e    *stats.Histogram // submit → terminal result
}

// scenario picks the next workload point: with probability hitFrac a seed
// from the fixed hot pool, otherwise a never-before-seen seed, so the
// steady-state cache hit ratio tracks -hit.
func (s *soak) scenario(rng *rand.Rand) wrtring.Scenario {
	var seed uint64
	if rng.Float64() < s.hitFrac {
		seed = 1 + rng.Uint64()%s.pool
	} else {
		seed = s.pool + 1 + s.missSeq.Add(1)
	}
	return wrtring.Scenario{
		N: s.n, Seed: seed, Duration: s.slots,
		Sources: []wrtring.Source{{Station: wrtring.AllStations, Kind: wrtring.CBR,
			Class: wrtring.Premium, Period: 50, Dest: wrtring.Opposite()}},
	}
}

func (s *soak) record(h *stats.Histogram, d time.Duration) {
	s.mu.Lock()
	h.Add(d.Milliseconds())
	s.mu.Unlock()
}

// oneSingle is one closed-loop operation in -mode single: submit one
// scenario through the shared bounded-retry policy, then wait for a terminal
// state. Submit latency covers the (possibly retried) admission; e2e covers
// submit through done.
func (s *soak) oneSingle(ctx context.Context, rng *rand.Rand) {
	sc := s.scenario(rng)
	start := time.Now()
	resp, err := s.client.SubmitScenariosRetry(ctx, []wrtring.Scenario{sc}, serve.RetryPolicy{})
	s.record(s.submit, time.Since(start))
	if err != nil || len(resp.Runs) != 1 {
		if ctx.Err() == nil {
			s.failed.Add(1)
		}
		return
	}
	run := resp.Runs[0]
	switch run.Status {
	case "rejected", "invalid":
		s.failed.Add(1)
		return
	case "cached":
		s.cacheHits.Add(1)
	case "coalesced":
		s.coalesced.Add(1)
	}
	st, err := s.client.Wait(ctx, run.ID, s.poll)
	if err != nil {
		if ctx.Err() == nil {
			s.failed.Add(1)
		}
		return
	}
	s.record(s.e2e, time.Since(start))
	if st.Status == "done" {
		s.ok.Add(1)
	} else {
		s.failed.Add(1)
	}
}

// oneBatch is one operation in -mode batch: a grid of -batch-points seeds
// (mixed hot/miss like single mode) submitted as one POST /v1/batches and
// streamed to completion. Each shard counts as one request in the summary,
// so single and batch throughput are comparable.
func (s *soak) oneBatch(ctx context.Context, rng *rand.Rand) {
	seeds := make([]uint64, s.points)
	for i := range seeds {
		seeds[i] = s.scenario(rng).Seed
	}
	base := s.scenario(rng)
	base.Seed = 0
	grid := sweep.Grid{Base: base, Axes: []sweep.Axis{sweep.AxisSeeds(seeds)}}

	start := time.Now()
	sub, err := s.client.SubmitBatch(ctx, grid)
	s.record(s.submit, time.Since(start))
	if err != nil {
		if ctx.Err() == nil {
			s.failed.Add(int64(s.points))
		}
		return
	}
	_, err = s.client.StreamBatchResults(ctx, sub.ID, func(l serve.BatchResultLine) error {
		s.record(s.e2e, time.Since(start))
		if l.Status == serve.ShardCompleted {
			s.ok.Add(1)
			if l.CacheHit {
				s.cacheHits.Add(1)
			}
		} else {
			s.failed.Add(1)
		}
		return nil
	})
	if err != nil && ctx.Err() == nil {
		s.failed.Add(1)
		return
	}
	if err != nil {
		// Deadline hit mid-stream: the batch keeps running server-side;
		// cancel it so soak load does not outlive the run.
		cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.client.CancelBatch(cctx, sub.ID) //nolint:errcheck // best-effort cleanup
	}
}

// quantiles is one histogram's summary row, in milliseconds.
type quantiles struct {
	N    int64   `json:"n"`
	Mean float64 `json:"meanMs"`
	P50  int64   `json:"p50Ms"`
	P90  int64   `json:"p90Ms"`
	P99  int64   `json:"p99Ms"`
	Max  int64   `json:"maxMs"`
}

func snapshot(h *stats.Histogram) quantiles {
	return quantiles{
		N: h.N(), Mean: h.Mean(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
		Max: h.Max(),
	}
}

// runSummary is the machine-readable result of a soak run (-json).
type runSummary struct {
	Server      string  `json:"server"`
	Mode        string  `json:"mode"`
	Concurrency int     `json:"concurrency"`
	TargetRPS   float64 `json:"targetRps,omitempty"`
	ElapsedSec  float64 `json:"elapsedSec"`

	OK         int64   `json:"ok"`
	Failed     int64   `json:"failed"`
	CacheHits  int64   `json:"cacheHits"`
	Coalesced  int64   `json:"coalesced"`
	Throughput float64 `json:"throughputRps"`

	Submit quantiles `json:"submitLatency"`
	E2E    quantiles `json:"e2eLatency"`
}

func (s *soak) summary(server string, elapsed time.Duration, concurrency int, rps float64) runSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok := s.ok.Load()
	return runSummary{
		Server: server, Mode: s.mode, Concurrency: concurrency, TargetRPS: rps,
		ElapsedSec: elapsed.Seconds(),
		OK:         ok, Failed: s.failed.Load(),
		CacheHits: s.cacheHits.Load(), Coalesced: s.coalesced.Load(),
		Throughput: float64(ok) / elapsed.Seconds(),
		Submit:     snapshot(s.submit), E2E: snapshot(s.e2e),
	}
}

func (r runSummary) print(w *os.File) {
	pacing := "closed-loop"
	if r.TargetRPS > 0 {
		pacing = fmt.Sprintf("%.1f rps target", r.TargetRPS)
	}
	fmt.Fprintf(w, "wrtsoak: %s mode=%s concurrency=%d %s %.1fs\n",
		r.Server, r.Mode, r.Concurrency, pacing, r.ElapsedSec)
	fmt.Fprintf(w, "requests: %d ok, %d failed  (%.1f/s)\n", r.OK, r.Failed, r.Throughput)
	fmt.Fprintf(w, "cache:    %d hits, %d coalesced\n", r.CacheHits, r.Coalesced)
	fmt.Fprintf(w, "%-22s %8s %8s %8s %8s %8s %8s\n",
		"latency (ms)", "count", "mean", "p50", "p90", "p99", "max")
	for _, row := range []struct {
		name string
		q    quantiles
	}{{"submit (admission)", r.Submit}, {"end-to-end (result)", r.E2E}} {
		fmt.Fprintf(w, "%-22s %8d %8.1f %8d %8d %8d %8d\n",
			row.name, row.q.N, row.q.Mean, row.q.P50, row.q.P90, row.q.P99, row.q.Max)
	}
}

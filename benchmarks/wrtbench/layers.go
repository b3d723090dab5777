package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/runner"
	"github.com/rtnet/wrtring/internal/serve"
	"github.com/rtnet/wrtring/internal/store"
	"github.com/rtnet/wrtring/sweep"
)

// traceLayers is the traced run's last step, taken after every fleet has
// drained so that no daemon's background work shares the CPU or the
// allocation counters with it. It replays a sample of the workload's inputs
// through each layer's public function and derives the per-layer metrics
// from those replays, the spans, the measured rounds' counters and the
// service probe.
func (b *bench) traceLayers(r *run, probe *tally, dir string) (map[string]float64, error) {
	m, err := replay(b.sample(), filepath.Join(dir, "replay-store"), b.cfg.replayBudget)
	if err != nil {
		return nil, err
	}
	b.tr.mu.Lock()
	spans := slices.Clone(b.tr.spans)
	b.tr.mu.Unlock()
	batchOf := make(map[string]string)
	for _, t := range []*tally{r.t, probe} {
		for id, batch := range t.batchOf {
			batchOf[id] = batch
		}
	}
	link(spans, batchOf)
	b.spanMetrics(m, spans, r.t, probe)
	b.counterMetrics(m, r)
	return m, nil
}

// sample is the replay input: the pool's first scenarios, or fresh
// scenarios of the workload's shape.
func (b *bench) sample() []wrtring.Scenario {
	if len(b.pool) > 0 {
		return b.pool[:min(b.cfg.sample, len(b.pool))]
	}
	g := newGen(b.cfg.seed, b.freshBase, streamSample)
	out := make([]wrtring.Scenario, b.cfg.sample)
	for i := range out {
		out[i] = b.w.probe(g)
	}
	return out
}

// probeService runs on the live fleet after the measured rounds of a traced
// run. It sends probeOps fresh single runs through the coordinator and
// through the standalone server, and one batch through the coordinator, so
// that every span kind exists even where the workload bypasses a layer.
func (b *bench) probeService(f *fleet) (*tally, error) {
	b.tr.setPhase("probe")
	defer b.tr.setPhase("")
	ctx := context.Background()
	g := newGen(b.cfg.seed, b.freshBase, streamProbe)
	p := &tally{links: true}
	do := func(in input, single *serve.Client) {
		sent := time.Now()
		var r opResult
		if single != nil {
			r = doSingle(ctx, single, in, 0)
		} else {
			r = doBatch(ctx, b, f, in)
		}
		p.add(sent, time.Now(), 0, 0, r)
	}
	for _, c := range []*serve.Client{f.coordClient, f.soloClient} {
		for i := 0; i < b.cfg.probeOps; i++ {
			do(input{scenario: b.w.probe(g)}, c)
		}
	}
	do(input{grid: sweep.Grid{Base: b.w.probe(g), Axes: []sweep.Axis{
		sweep.AxisSeeds(g.seeds(max(b.cfg.probeOps/2, 1))), sweep.AxisProtocols()}}}, nil)
	f.batches = append(f.batches, p.batchIDs...)
	if p.fails > 0 {
		return p, fmt.Errorf("service probe: %d ops failed, first: %v", p.fails, p.errs)
	}
	return p, nil
}

// spanMetrics derives the HTTP-layer metrics. Times come from the measured
// rounds' spans, or from the probe's where the workload never crossed that
// boundary; per-op counts come from the measured rounds only.
func (b *bench) spanMetrics(m map[string]float64, spans []*span, t, probe *tally) {
	self := selfTimes(spans)
	isWorker := func(s *span) bool { return s.Node != "client" && s.Node != "coord" }
	sel := func(phase string, keep func(*span) bool) []*span {
		var out []*span
		for _, s := range spans {
			if s.Phase == phase && keep(s) {
				out = append(out, s)
			}
		}
		return out
	}
	timed := func(keep func(*span) bool, value func(*span) float64) float64 {
		ss := sel("run", keep)
		if len(ss) == 0 {
			ss = sel("probe", keep)
		}
		vs := make([]float64, len(ss))
		for i, s := range ss {
			vs[i] = value(s)
		}
		return mean(vs)
	}
	route := func(node func(*span) bool, routes ...string) func(*span) bool {
		return func(s *span) bool { return node(s) && slices.Contains(routes, s.Route) }
	}
	on := func(name string) func(*span) bool { return func(s *span) bool { return s.Node == name } }
	dur := func(s *span) float64 { return s.dur() }
	ops := float64(max(t.ops, 1))

	m["client.submit_ms"] = timed(route(on("client"), "POST /v1/runs", "POST /v1/batches"), dur)
	m["coord.http.submit_ms"] = timed(route(on("coord"), "POST /v1/runs", "POST /v1/batches"), dur)
	m["coord.http.status_self_ms"] = timed(route(on("coord"), "GET /v1/runs/{id}"), func(s *span) float64 { return self[s.ID] })
	m["worker.http.submit_ms"] = timed(route(isWorker, "POST /v1/runs"), dur)
	m["worker.http.status_ms"] = timed(route(isWorker, "GET /v1/runs/{id}"), dur)

	posts := len(sel("run", route(on("client"), "POST /v1/runs", "POST /v1/batches")))
	if !b.w.local {
		m["client.retries_per_op"] = float64(max(posts-t.submits, 0)) / ops
	} else {
		m["client.retries_per_op"] = 0
	}
	m["client.status_polls_per_op"] = float64(len(sel("run", route(on("client"), "GET /v1/runs/{id}")))) / ops
	var reqs, bytes float64
	for _, s := range sel("run", isWorker) {
		reqs++
		bytes += float64(s.Bytes)
	}
	m["worker.http.requests_per_op"] = reqs / ops
	m["worker.http.bytes_per_op"] = bytes / ops

	runDispatch, runPolls, runJobs := dispatches(sel("run", func(s *span) bool { return isWorker(s) && s.Parent == 0 }))
	if len(runDispatch) == 0 {
		runDispatch, _, _ = dispatches(sel("probe", func(s *span) bool { return isWorker(s) && s.Parent == 0 }))
	}
	m["cluster.dispatch_ms"] = mean(runDispatch)
	m["cluster.status_polls_per_job"] = ratio(int64(runPolls), int64(runJobs))

	first, gaps := t.firstLine, t.lineGap
	if len(first) == 0 {
		first, gaps = probe.firstLine, probe.lineGap
	}
	m["batch.first_line_ms"] = mean(first)
	m["batch.line_gap_ms"] = mean(gaps)
}

// dispatches reconstructs the coordinator's dispatch of each job from the
// worker calls it made (root spans: no client or coordinator span caused
// them): the submit, then status polls until one answers done. It returns
// each job's submit-to-done time, the polls counted, and the jobs seen.
func dispatches(roots []*span) (durs []float64, polls, jobs int) {
	byOp := make(map[string][]*span)
	for _, s := range roots {
		if s.Op != "" && (s.Route == "POST /v1/runs" || s.Route == "GET /v1/runs/{id}") {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	for _, ss := range byOp {
		slices.SortFunc(ss, func(a, b *span) int { return cmp.Compare(a.Start, b.Start) })
		if ss[0].Route != "POST /v1/runs" {
			continue
		}
		jobs++
		for _, s := range ss[1:] {
			polls++
			if s.Status == serve.StateDone.String() {
				durs = append(durs, float64(s.End-ss[0].Start)/1e6)
				break
			}
		}
	}
	return durs, polls, jobs
}

// counterMetrics derives the metrics read from the daemons' counters over
// the measured rounds.
func (b *bench) counterMetrics(m map[string]float64, r *run) {
	c, t := r.ctr, r.t
	ops := int64(max(t.ops, 1))
	per := func(v int64) float64 { return float64(v) / float64(ops) }
	m["wrtring.canonical_encodes_per_op"] = per(c[cCanonical])
	m["queue.depth_max"] = float64(r.sampler.depthMax)
	m["queue.busy_frac"] = 0
	if r.sampler.samples > 0 {
		m["queue.busy_frac"] = r.sampler.busy / float64(r.sampler.samples)
	}
	m["queue.admitted_per_op"] = per(c[cAdmitted])
	m["queue.coalesced"] = float64(c[cCoalesced])
	m["queue.rejected"] = float64(c[cRejected])
	// Submissions the service answered from a cache, as the caller saw
	// them: in the cluster the coordinator answers from its own job table
	// and reads the bytes with a counter-free peek, so worker hit counters
	// would miss them.
	m["cache.hit_ratio"] = ratio(int64(t.cached+t.hitLines), int64(t.runs))
	m["cache.disk_hit_frac"] = ratio(c[cDiskHits], c[cHits])
	m["cache.evictions_per_op"] = per(c[cEvictions])
	m["store.puts_per_op"] = per(c[cPuts])
	m["store.corruptions"] = float64(r.absolute.corruptions)
	m["cluster.rejected_per_shard"] = ratio(c[cCoordRejected], c[cCoordAdmitted])
	m["cluster.remote_cache_hits"] = float64(c[cRemoteHits])
	m["cluster.redispatched"] = float64(r.absolute.redispatched)
	m["batch.cache_hit_shards"] = float64(t.hitLines)
	m["gen.lag_p50_ms"] = percentile(t.lag, 0.5)
	m["gen.lag_p99_ms"] = percentile(t.lag, 0.99)
}

// replay runs the sample serially through each in-process layer's public
// function, each pass capped at budget (at least one scenario), and returns
// mean per-call costs.
func replay(sample []wrtring.Scenario, storeDir string, budget time.Duration) (map[string]float64, error) {
	m := make(map[string]float64)
	pass := func(fn func(wrtring.Scenario) error) (int, error) {
		start := time.Now()
		n := 0
		for _, s := range sample {
			if n > 0 && time.Since(start) >= budget {
				break
			}
			if err := fn(s); err != nil {
				return n, err
			}
			n++
		}
		return n, nil
	}
	us := func(d time.Duration, n int) float64 {
		return float64(d) / float64(time.Microsecond) / float64(max(n, 1))
	}

	// Simulate, encode and key, on one reused arena (the serve workers'
	// steady state).
	arena := wrtring.NewArena()
	var simTime, encTime, keyTime time.Duration
	var slots int64
	var mallocs uint64
	var keys []string
	var results [][]byte
	var size int
	n, err := pass(func(s wrtring.Scenario) error {
		net, err := arena.Build(s)
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res := net.RunFor(net.Scenario.Duration)
		simTime += time.Since(start)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		slots += net.Scenario.Duration

		start = time.Now()
		data, err := json.Marshal(res)
		encTime += time.Since(start)
		if err != nil {
			return err
		}
		start = time.Now()
		key, err := serve.Key(s)
		keyTime += time.Since(start)
		if err != nil {
			return err
		}
		keys, results, size = append(keys, key), append(results, data), size+len(data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["sim.slots_per_s"] = float64(slots) / simTime.Seconds()
	m["sim.allocs_per_slot"] = float64(mallocs) / float64(max(slots, 1))
	m["wrtring.encode_us"] = us(encTime, n)
	m["wrtring.result_bytes"] = float64(size) / float64(max(n, 1))
	m["wrtring.key_us"] = us(keyTime, n)

	var buildTime time.Duration
	if n, err = pass(func(s wrtring.Scenario) error {
		start := time.Now()
		_, err := wrtring.Build(s)
		buildTime += time.Since(start)
		return err
	}); err != nil {
		return nil, err
	}
	m["wrtring.build_us"] = us(buildTime, n)

	var arenaTime time.Duration
	if n, err = pass(func(s wrtring.Scenario) error {
		start := time.Now()
		_, err := arena.Build(s)
		arenaTime += time.Since(start)
		return err
	}); err != nil {
		return nil, err
	}
	m["wrtring.arena_build_us"] = us(arenaTime, n)

	var runTime time.Duration
	if n, err = pass(func(s wrtring.Scenario) error {
		start := time.Now()
		res := runner.RunJob(context.Background(), runner.Job{Scenario: s}, nil)
		runTime += time.Since(start)
		return res.Err
	}); err != nil {
		return nil, err
	}
	m["runner.run_us"] = us(runTime, n)

	// The cache and store passes replay the results computed above.
	cache := serve.NewCache(len(keys), 0)
	for i, k := range keys {
		cache.Put(k, results[i])
	}
	gets := 0
	start := time.Now()
	for time.Since(start) < 10*time.Millisecond {
		for _, k := range keys {
			if _, ok := cache.Get(k); !ok {
				return nil, fmt.Errorf("replayed cache lost %s", k)
			}
			gets++
		}
	}
	m["cache.get_us"] = us(time.Since(start), gets)

	st, err := store.Open(storeDir, store.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for i, k := range keys {
		if err := st.Put(k, results[i]); err != nil {
			return nil, err
		}
	}
	m["store.put_us"] = us(time.Since(start), len(keys))
	start = time.Now()
	for _, k := range keys {
		if _, ok := st.Get(k); !ok {
			return nil, fmt.Errorf("replayed store lost %s", k)
		}
	}
	m["store.get_us"] = us(time.Since(start), len(keys))
	start = time.Now()
	if _, err := store.Open(storeDir, store.Options{NoSync: true}); err != nil {
		return nil, err
	}
	m["store.open_ms"] = ms(time.Since(start))
	return m, nil
}

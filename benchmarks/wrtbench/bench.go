package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/runner"
	"github.com/rtnet/wrtring/internal/serve"
	"github.com/rtnet/wrtring/sweep"
)

// config sizes one benchmark run. defaultConfig is what the command runs;
// the tests shrink it.
type config struct {
	seed    int64
	seconds float64 // measured time per workload, split evenly over rounds
	rounds  int
	warmup  time.Duration
	// A run sets up at least minSetups times and keeps setting up until
	// setupBudget is spent or maxSetups is reached; setup_s is the median.
	minSetups, maxSetups int
	setupBudget          time.Duration
	trace                bool
	workDir              string

	gridSeeds  int     // sweep-local: seeds per sweep (x 2 protocols)
	batchSeeds int     // sweep-cold: seeds per batch (x 2 protocols)
	longSlots  int64   // long-sim: slots per run
	hotPool    int     // hits-hot pool size
	hotRate    float64 // hits-hot arrivals per second
	diskPool   int     // disk-spill pool size; the server caches 1/16 of it
	diskFresh  float64 // disk-spill share of fresh specs

	verifyOps    int           // fresh ops per round recomputed by the oracle
	sample       int           // replay sample size (traced runs)
	replayBudget time.Duration // time cap per replayed layer (traced runs)
	probeOps     int           // service probe ops per path (traced runs)
}

func defaultConfig() config {
	return config{
		seed: 1, seconds: 20, rounds: 10, warmup: time.Second,
		minSetups: 3, maxSetups: 15, setupBudget: 2 * time.Second,
		workDir:   ".bench_build",
		gridSeeds: 64, batchSeeds: 12, longSlots: longSimSlots,
		hotPool: 256, hotRate: 2000,
		diskPool: 2048, diskFresh: 0.2,
		verifyOps: 4, sample: 256, replayBudget: 400 * time.Millisecond, probeOps: 8,
	}
}

// bench is one workload's run: its seeded inputs, references and tracer.
type bench struct {
	cfg       config
	w         *workload
	freshBase uint64
	pool      []wrtring.Scenario
	refs      [][]byte // expected result bytes per pool entry
	keys      []string // serve.Key per pool entry
	readyRef  []byte   // expected result bytes of readyScenario
	tr        *tracer
	logf      func(string, ...any)
}

// readyScenario is the first run every set-up sends through the
// coordinator. Seed 0 is below every pool and fresh seed, so no workload
// ever asks for it again.
var readyScenario = gridScenario(0)

// newBench derives the run's inputs from the seed — the fresh-seed base and
// the pool membership — and computes the reference results locally. None of
// this is timed: it is the oracle, not the system under test.
func newBench(cfg config, w *workload, stderr io.Writer) (*bench, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	b := &bench{
		cfg: cfg, w: w,
		// Fresh seeds live above every pool seed; each input stream gets
		// 2^32 of them (see newGen).
		freshBase: 1<<50 + uint64(rng.Int63n(1<<11))<<38,
		logf:      func(format string, args ...any) { fmt.Fprintf(stderr, "wrtbench: "+format+"\n", args...) },
	}
	if cfg.trace {
		b.tr = newTracer()
	}
	ready, err := references([]wrtring.Scenario{readyScenario})
	if err != nil {
		return nil, err
	}
	b.readyRef = ready[0]
	if w.pool == nil {
		return b, nil
	}
	seen := make(map[uint64]bool)
	for len(b.pool) < w.pool(cfg) {
		seed := 1 + uint64(rng.Int63n(1<<50-1))
		if !seen[seed] {
			seen[seed] = true
			b.pool = append(b.pool, soakScenario(seed))
		}
	}
	refs, err := references(b.pool)
	if err != nil {
		return nil, err
	}
	b.refs = refs
	for _, s := range b.pool {
		k, err := serve.Key(s)
		if err != nil {
			return nil, err
		}
		b.keys = append(b.keys, k)
	}
	return b, nil
}

// references runs scenarios locally through the runner (fresh builds) and
// encodes each result as the service does.
func references(scenarios []wrtring.Scenario) ([][]byte, error) {
	jobs := make([]runner.Job, len(scenarios))
	for i, s := range scenarios {
		jobs[i] = runner.Job{Name: fmt.Sprint(i), Scenario: s}
	}
	out := make([][]byte, len(jobs))
	for i, r := range runner.Run(jobs, runner.Options{Jobs: 2}) {
		if r.Err != nil {
			return nil, fmt.Errorf("reference run %d: %w", i, r.Err)
		}
		data, err := json.Marshal(r.Res)
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

// gens builds one input generator per client on consecutive streams.
func (b *bench) gens(stream, clients int) func(int) *gen {
	gs := make([]*gen, clients)
	for k := range gs {
		gs[k] = newGen(b.cfg.seed, b.freshBase, stream+k)
	}
	return func(k int) *gen { return gs[k] }
}

// setup boots one fleet, waits until it is ready and fills the workload's
// pool. A cluster pool is completed through the coordinator; the standalone
// server's pool was left on disk by prefillStore, and the server reopens
// that store as a restarted server would.
//
// The fleet is ready once the coordinator has returned a first result end
// to end: readyScenario is submitted, dispatched to a worker, simulated,
// polled to done by the coordinator and read back. That is how long a user
// of a freshly started cluster waits for a first answer. It is also what
// keeps setup_s steady across processes: the coordinator's first status
// poll comes one PollInterval (20 ms) after the dispatch, while the rest of
// the boot is about a millisecond whose level varies twofold from one
// process to the next.
func (b *bench) setup(dir, soloDir string) (*fleet, error) {
	f, err := bootFleet(fleetConfig{
		dir: dir, soloDir: soloDir, soloCache: max(b.cfg.diskPool/16, 1), tracer: b.tr, logf: b.logf,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// A 1 ms poll keeps the client's own polling from rounding the wait up
	// to its default 10 ms step.
	if r := doSingle(ctx, f.coordClient, input{scenario: readyScenario, ref: b.readyRef}, time.Millisecond); r.fail != "" {
		f.drain()
		return nil, fmt.Errorf("fleet not ready: %s", r.fail)
	}
	if b.pool != nil && b.w.cluster {
		if err := b.fillCluster(f); err != nil {
			f.drain()
			return nil, fmt.Errorf("filling the pool: %w", err)
		}
	}
	return f, nil
}

// fillCluster completes the whole pool through the coordinator as one
// batch and checks every result against its reference.
func (b *bench) fillCluster(f *fleet) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	seeds := make([]uint64, len(b.pool))
	for i, s := range b.pool {
		seeds[i] = s.Seed
	}
	sub, err := f.coordClient.SubmitBatch(ctx, sweep.Grid{Base: soakScenario(0), Axes: []sweep.Axis{sweep.AxisSeeds(seeds)}})
	if err != nil {
		return err
	}
	f.batches = append(f.batches, sub.ID)
	n, err := f.coordClient.StreamBatchResults(ctx, sub.ID, func(l serve.BatchResultLine) error {
		if l.Status != serve.ShardCompleted || l.Index < 0 || int(l.Index) >= len(b.refs) || !bytes.Equal(l.Result, b.refs[l.Index]) {
			return fmt.Errorf("pool shard %d: status %s, result differs from the local reference", l.Index, l.Status)
		}
		return nil
	})
	if err == nil && n != len(b.pool) {
		err = fmt.Errorf("pool batch delivered %d of %d results", n, len(b.pool))
	}
	return err
}

// servers are the daemons whose queue, cache and store counters belong to
// the workload: the cluster's workers, or the standalone server.
func (b *bench) servers(f *fleet) []*node {
	if b.w.cluster || b.w.local {
		return f.workers
	}
	return []*node{f.solo}
}

// Counter indices; counters are summed over the workload's servers.
const (
	cAdmitted = iota
	cCoalesced
	cRejected
	cHits
	cDiskHits
	cEvictions
	cPuts
	cCoordAdmitted
	cCoordRejected
	cRemoteHits
	cCanonical
	cAlloc
	nCounters
)

type counters [nCounters]int64

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (b *bench) snapshot(f *fleet) counters {
	var c counters
	for _, n := range b.servers(f) {
		qs, cs, ss := n.srv.Queue().Stats(), n.srv.Cache().Stats(), n.store.Stats()
		c[cAdmitted] += qs.Admitted
		c[cCoalesced] += qs.Coalesced
		c[cRejected] += qs.Rejected
		c[cHits] += cs.Hits
		c[cDiskHits] += cs.DiskHits
		c[cEvictions] += cs.Evictions
		c[cPuts] += ss.Puts
	}
	cs := f.coord.Stats()
	c[cCoordAdmitted], c[cCoordRejected], c[cRemoteHits] = cs.Admitted, cs.Rejected, cs.RemoteCacheHits
	c[cCanonical] = int64(wrtring.CanonicalEncodes())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cAlloc] = int64(ms.TotalAlloc)
	return c
}

// queueSampler reads the workload servers' queue depth and busy workers
// every 5 ms during a traced round. Its fields are read only after run has
// returned.
type queueSampler struct {
	depthMax int
	busy     float64 // sum over samples of running / workers
	samples  int
}

func (q *queueSampler) run(nodes []*node, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		depth, running := 0, 0
		for _, n := range nodes {
			qs := n.srv.Queue().Stats()
			depth += qs.Depth
			running += qs.Running
		}
		q.depthMax = max(q.depthMax, depth)
		q.busy += float64(running) / float64(len(nodes)) // one simulation worker per server
		q.samples++
	}
}

// run is everything one workload's run measured.
type run struct {
	setup    []float64 // seconds per set-up
	t        *tally
	rounds   []round
	ctr      counters // summed over the rounds' windows
	sampler  *queueSampler
	absolute struct{ redispatched, corruptions int64 }
	problems []string // oracle and property violations
}

// measure runs the warm-up and the rounds on a booted fleet, checking the
// fresh-spec oracle after each round.
func (b *bench) measure(f *fleet, r *run) {
	l := b.w.loop(b.cfg)
	ctx := context.Background()
	do := func(ctx context.Context, in input) opResult { return b.w.do(ctx, b, f, in) }
	nextFrom := func(gen func(int) *gen) func(int) input {
		return func(k int) input { return b.w.next(b, gen(k)) }
	}
	if b.cfg.warmup > 0 {
		warm := &tally{}
		runRound(ctx, l, time.Now().Add(b.cfg.warmup), nextFrom(b.gens(streamWarmup, l.clients)), do, warm)
		for _, e := range warm.errs {
			r.problems = append(r.problems, "warm-up op failed: "+e)
		}
	}
	next := nextFrom(b.gens(streamMeasure, l.clients))
	r.t = &tally{verifyOps: b.cfg.verifyOps, links: b.tr != nil}
	r.sampler = &queueSampler{}
	roundLen := time.Duration(b.cfg.seconds / float64(b.cfg.rounds) * float64(time.Second))
	for i := 0; i < b.cfg.rounds; i++ {
		before := b.snapshot(f)
		var stop, done chan struct{}
		if b.tr != nil {
			stop, done = make(chan struct{}), make(chan struct{})
			go r.sampler.run(b.servers(f), stop, done)
			b.tr.setPhase("run")
		}
		lo, runs := len(r.t.lat), r.t.runs
		span := runRound(ctx, l, time.Now().Add(roundLen), next, do, r.t)
		r.rounds = append(r.rounds, round{elapsed: span, runs: r.t.runs - runs, lat: slices.Clone(r.t.lat[lo:])})
		if b.tr != nil {
			b.tr.setPhase("")
			close(stop)
			<-done
		}
		d := b.snapshot(f).sub(before)
		for j := range r.ctr {
			r.ctr[j] += d[j]
		}
		r.problems = append(r.problems, verify(r.t.takePending())...)
	}
	f.batches = append(f.batches, r.t.batchIDs...)
}

// verify is the fresh-spec oracle: each retained op's results are
// recomputed locally and must match byte for byte, and each run ID the
// service reported must be the scenario's content address.
func verify(pending []func() ([]check, error)) []string {
	var cs []check
	var problems []string
	for _, p := range pending {
		c, err := p()
		if err != nil {
			problems = append(problems, err.Error())
		}
		cs = append(cs, c...)
	}
	scenarios := make([]wrtring.Scenario, len(cs))
	for i, c := range cs {
		scenarios[i] = c.scenario
	}
	want, err := references(scenarios)
	if err != nil {
		return append(problems, err.Error())
	}
	for i, c := range cs {
		got := c.got
		if c.res != nil {
			if got, err = json.Marshal(c.res); err != nil {
				problems = append(problems, err.Error())
				continue
			}
		}
		if !bytes.Equal(got, want[i]) {
			problems = append(problems, fmt.Sprintf("fresh scenario seed %d: result differs from the local reference", c.scenario.Seed))
		}
		if c.id != "" {
			if key, err := serve.Key(c.scenario); err != nil || key != c.id {
				problems = append(problems, fmt.Sprintf("fresh scenario seed %d: run ID %s is not its content address", c.scenario.Seed, c.id))
			}
		}
	}
	return problems
}

// checkProperties asserts what each workload is built to exercise.
func (b *bench) checkProperties(r *run) {
	t, c := r.t, r.ctr
	bad := func(format string, args ...any) { r.problems = append(r.problems, fmt.Sprintf(format, args...)) }
	if t.fails > 0 {
		bad("%d of %d ops failed, first: %v", t.fails, t.ops, t.errs)
	}
	if t.ops == 0 {
		bad("no operation completed")
	}
	switch b.w.name {
	case "hits-hot":
		if float64(t.cached) < 0.99*float64(t.ops) {
			bad("hits-hot: %d of %d submissions answered cached (want >= 99%%)", t.cached, t.ops)
		}
		if c[cAdmitted] != 0 {
			bad("hits-hot: workers admitted %d jobs (want 0)", c[cAdmitted])
		}
	case "sweep-cold":
		if t.hitLines != 0 || c[cHits] != 0 || c[cRemoteHits] != 0 {
			bad("sweep-cold: cache hits (lines %d, worker caches %d, remote %d), want none", t.hitLines, c[cHits], c[cRemoteHits])
		}
	case "disk-spill":
		if frac := ratio(c[cDiskHits], c[cHits]); frac < 0.7 {
			bad("disk-spill: disk hits are %.3f of cache hits (want >= 0.7)", frac)
		}
	}
	if r.absolute.redispatched != 0 {
		bad("coordinator redispatched %d jobs", r.absolute.redispatched)
	}
	if r.absolute.corruptions != 0 {
		bad("stores quarantined %d corrupt entries", r.absolute.corruptions)
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runWorkload is one complete run: references, set-ups, warm-up, rounds,
// the traced service probe, the drain, the traced replays and every check.
func runWorkload(cfg config, w *workload, stderr io.Writer) (*record, error) {
	b, err := newBench(cfg, w, stderr)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "wrtbench-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The standalone server's pool is written once, untimed: it stands for
	// a previous server lifetime, and creating thousands of files measures
	// the host's filesystem more than the program. Every set-up reopens it.
	var soloDir string
	if b.pool != nil && !w.cluster {
		soloDir = filepath.Join(dir, "pool")
		if err := prefillStore(soloDir, b.keys, b.refs); err != nil {
			return nil, fmt.Errorf("prefilling the store: %w", err)
		}
	}
	r := &run{}
	var f *fleet
	var spent time.Duration
	for k := 0; k < cfg.maxSetups && (k < cfg.minSetups || spent < cfg.setupBudget); k++ {
		if f != nil {
			if err := f.drain(); err != nil {
				r.problems = append(r.problems, err.Error())
			}
		}
		start := time.Now()
		if f, err = b.setup(filepath.Join(dir, fmt.Sprint(k)), soloDir); err != nil {
			return nil, err
		}
		d := time.Since(start)
		spent += d
		r.setup = append(r.setup, d.Seconds())
	}

	b.measure(f, r)
	var probe *tally
	if b.tr != nil {
		if probe, err = b.probeService(f); err != nil {
			r.problems = append(r.problems, err.Error())
		}
	}
	r.absolute.redispatched = f.coord.Stats().Redispatched
	for _, n := range f.servers() {
		r.absolute.corruptions += n.store.Stats().Corruptions
	}
	if err := f.drain(); err != nil {
		r.problems = append(r.problems, err.Error())
	}
	var layers map[string]float64
	if b.tr != nil {
		if layers, err = b.traceLayers(r, probe, dir); err != nil {
			r.problems = append(r.problems, err.Error())
		}
	}
	b.checkProperties(r)
	rec := b.record(r, layers)
	if b.tr != nil {
		path := filepath.Join(cfg.workDir, fmt.Sprintf("wrtbench-trace-%s-%d.json", w.name, cfg.seed))
		if err := b.tr.writeSpans(path, w.name, cfg.seed); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		rec.TraceFile = path
	}
	return rec, nil
}

// round is one round's share of the measurement.
type round struct {
	elapsed time.Duration
	runs    int
	lat     []float64
}

// perRound returns each round's rate, p50 and tail latency.
func (b *bench) perRound(r *run) map[string][]float64 {
	m := make(map[string][]float64)
	for _, rd := range r.rounds {
		m["runs_per_s"] = append(m["runs_per_s"], float64(rd.runs)/rd.elapsed.Seconds())
		m["latency_p50_ms"] = append(m["latency_p50_ms"], percentile(rd.lat, 0.5))
		m["latency_tail_ms"] = append(m["latency_tail_ms"], percentile(rd.lat, b.w.tail))
	}
	return m
}

// endToEndValues computes the workload's end-to-end metrics. Rate, median
// latency and (where every round holds enough samples beyond it) tail
// latency are medians over the rounds, so one round disturbed by the host
// does not move them; otherwise the tail is taken over all samples.
func (b *bench) endToEndValues(r *run) map[string]float64 {
	rounds := b.perRound(r)
	tail := percentile(r.t.lat, b.w.tail)
	if b.tailPerRound(r) {
		tail = median(rounds["latency_tail_ms"])
	}
	return map[string]float64{
		"setup_s":          median(r.setup),
		"runs_per_s":       median(rounds["runs_per_s"]),
		"latency_p50_ms":   median(rounds["latency_p50_ms"]),
		"latency_tail_ms":  tail,
		"alloc_kb_per_run": float64(r.ctr[cAlloc]) / 1024 / float64(max(r.t.runs, 1)),
	}
}

// tailPerRound reports whether every round has at least minBeyond latency
// samples beyond the workload's tail percentile.
func (b *bench) tailPerRound(r *run) bool {
	for _, rd := range r.rounds {
		if beyond(len(rd.lat), b.w.tail) < minBeyond {
			return false
		}
	}
	return len(r.rounds) > 0
}

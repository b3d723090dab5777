package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	wrtring "github.com/rtnet/wrtring"
	"github.com/rtnet/wrtring/internal/serve"
	"github.com/rtnet/wrtring/sweep"
)

// Scenario shapes, all CBR Premium traffic to the opposite station:
// gridScenario is the BenchmarkGridThroughput point (the run lifecycle
// dominates), soakScenario the cmd/wrtsoak default (a couple of
// milliseconds of simulation), and long-sim's N=64 runs are long enough
// that the slot loop is a large share of each op.
func cbr(p wrtring.Protocol, n int, seed uint64, slots int64) wrtring.Scenario {
	return wrtring.Scenario{
		Protocol: p, N: n, L: 2, K: 2, Seed: seed, Duration: slots,
		Sources: []wrtring.Source{{Station: wrtring.AllStations, Kind: wrtring.CBR,
			Class: wrtring.Premium, Period: 50, Dest: wrtring.Opposite()}},
	}
}

// longSimSlots is the length of long-sim's runs: long enough that the slot
// loop is about half of each op, short enough that a 20 s run holds about
// 110 ops, ten of them beyond the p90 it reports.
const longSimSlots = 16_000

func gridScenario(seed uint64) wrtring.Scenario { return cbr(wrtring.WRTRing, 8, seed, 64) }

func soakScenario(seed uint64) wrtring.Scenario {
	s := cbr(wrtring.WRTRing, 8, seed, 2000)
	s.L, s.K = 0, 0 // cmd/wrtsoak leaves the quotas at their defaults
	return s
}

// gridProbe draws fresh grid points alternating the two protocols.
func gridProbe(g *gen) wrtring.Scenario {
	g.n++
	return cbr(protocols(g.n), 8, g.seeds(1)[0], 64)
}

// protocols alternates WRT-Ring and TPT by operation number.
func protocols(i uint64) wrtring.Protocol {
	if i%2 == 0 {
		return wrtring.WRTRing
	}
	return wrtring.TPT
}

// Input streams. Every generator draws from its own stream of the run's
// seed, so the inputs a client sends do not depend on how fast the others
// go or how many operations the warm-up fitted in.
const (
	streamMeasure = 0  // + client
	streamWarmup  = 16 // + client
	streamSample  = 32 // the replay sample
	streamProbe   = 33 // the traced run's service probes
)

// gen is one client's input source: fresh seeds never used before in the
// run, and a seeded RNG for pool picks and the hit/miss coin.
type gen struct {
	rng   *rand.Rand
	fresh uint64 // next fresh seed
	n     uint64 // ops generated
}

func newGen(runSeed int64, freshBase uint64, stream int) *gen {
	return &gen{
		rng:   rand.New(rand.NewSource(runSeed*1_000_003 + int64(stream))),
		fresh: freshBase + uint64(stream)<<32,
	}
}

func (g *gen) seeds(k int) []uint64 {
	out := make([]uint64, k)
	for i := range out {
		out[i] = g.fresh
		g.fresh++
	}
	return out
}

// input is one operation's request. Exactly one of points, grid and
// scenario is set; ref is the expected result bytes of a pool scenario.
type input struct {
	points   []sweep.Point
	grid     sweep.Grid
	scenario wrtring.Scenario
	ref      []byte
}

// check is one result the fresh-spec oracle recomputes locally.
type check struct {
	scenario wrtring.Scenario
	id       string          // the run ID the service reported ("" for local sweeps)
	got      []byte          // result bytes the caller received
	res      *wrtring.Result // or, for local sweeps, the result value
}

// workload is one traffic mix: how it loads the system, where its ops go,
// what its inputs look like, and what its pool (if any) holds.
type workload struct {
	name string
	why  string
	// tail is the latency percentile reported as latency_tail_ms, fixed per
	// workload so that at least ten samples lie beyond it on a normal run.
	tail float64
	loop func(cfg config) loop
	// cluster: ops go through the coordinator and its two workers; else,
	// unless local, through the standalone server.
	cluster, local bool
	// pool sizes the workload's scenario pool (nil: no pool).
	pool func(cfg config) int
	next func(b *bench, g *gen) input
	do   func(ctx context.Context, b *bench, f *fleet, in input) opResult
	// probe is the shape of fresh scenarios the traced run's service probes
	// send, and of the replay sample when the workload has no pool.
	probe func(g *gen) wrtring.Scenario
}

var workloads = []*workload{
	{
		name: "sweep-local",
		why: "sweep.RunProgress over 128 fresh grid points (64 seeds x 2 protocols), 1 caller; no service layer runs, " +
			"so run-lifecycle changes show here; tail p99",
		tail:  0.99,
		loop:  func(config) loop { return loop{clients: 1} },
		local: true,
		next: func(b *bench, g *gen) input {
			return input{points: sweep.OverProtocol(sweep.OverSeeds(gridScenario(0), g.seeds(b.cfg.gridSeeds)))}
		},
		do:    doLocalSweep,
		probe: gridProbe,
	},
	{
		name: "sweep-cold",
		why: "coordinator batch of 24 fresh grid points per op, 1 client; dispatch, polling, batch stream and store " +
			"writes dominate with zero cache hits; tail p90",
		tail:    0.90,
		loop:    func(config) loop { return loop{clients: 1} },
		cluster: true,
		next: func(b *bench, g *gen) input {
			return input{grid: sweep.Grid{Base: gridScenario(0), Axes: []sweep.Axis{
				sweep.AxisSeeds(g.seeds(b.cfg.batchSeeds)), sweep.AxisProtocols()}}}
		},
		do:    doBatch,
		probe: gridProbe,
	},
	{
		name: "long-sim",
		why: "coordinator single runs of fresh N=64 scenarios, 1 client; op = a WRT-Ring run, then a TPT run of the " +
			"same spec; the slot loop is about half of each op, the service path the rest; tail p90",
		tail: 0.90,
		// One client, so that no run waits in a worker's queue behind the
		// other client's: with two, whether an op queued depended on where
		// the ring placed both keys, and the tail swung with that.
		loop:    func(config) loop { return loop{clients: 1} },
		cluster: true,
		next: func(b *bench, g *gen) input {
			return input{scenario: cbr(wrtring.WRTRing, 64, g.seeds(1)[0], b.cfg.longSlots)}
		},
		do: func(ctx context.Context, b *bench, f *fleet, in input) opResult {
			return doProtocolPair(ctx, f.coordClient, in)
		},
		probe: func(g *gen) wrtring.Scenario {
			g.n++
			return cbr(protocols(g.n), 64, g.seeds(1)[0], longSimSlots)
		},
	},
	{
		name: "hits-hot",
		why: "open loop at 2000 req/s from 2 senders: coordinator single runs picked from a 256-spec pool filled in " +
			"set-up; every op is a RAM cache hit, no simulation, no disk; tail p90",
		// Above p90 this distribution is set by host stalls: on a shared
		// 2-CPU host the quartile spread of ten runs' p99 was 22-44%, of
		// their p95 3-6% in calm periods but 27% in a busy one, and of their
		// p90 4-8% in calm and busy periods alike.
		tail:    0.90,
		loop:    func(cfg config) loop { return loop{clients: maxClients, rate: cfg.hotRate} },
		cluster: true,
		pool:    func(cfg config) int { return cfg.hotPool },
		next: func(b *bench, g *gen) input {
			i := g.rng.Intn(len(b.pool))
			return input{scenario: b.pool[i], ref: b.refs[i]}
		},
		do: func(ctx context.Context, b *bench, f *fleet, in input) opResult {
			return doSingle(ctx, f.coordClient, in, 0)
		},
		probe: func(g *gen) wrtring.Scenario { return soakScenario(g.seeds(1)[0]) },
	},
	{
		name: "disk-spill",
		why: "standalone server, 2 clients: 80% picks from a 2048-spec pool prefilled on disk (16x its RAM cache), " +
			"20% fresh specs; store reads and writes dominate; tail p99",
		tail: 0.99,
		loop: func(config) loop { return loop{clients: maxClients} },
		pool: func(cfg config) int { return cfg.diskPool },
		next: func(b *bench, g *gen) input {
			if g.rng.Float64() < b.cfg.diskFresh {
				return input{scenario: soakScenario(g.seeds(1)[0])}
			}
			i := g.rng.Intn(len(b.pool))
			return input{scenario: b.pool[i], ref: b.refs[i]}
		},
		do: func(ctx context.Context, b *bench, f *fleet, in input) opResult {
			return doSingle(ctx, f.soloClient, in, 0)
		},
		probe: func(g *gen) wrtring.Scenario { return soakScenario(g.seeds(1)[0]) },
	},
}

// doLocalSweep is the wrtsweep path: the points run through sweep.RunProgress
// on two workers with fresh builds per point.
func doLocalSweep(_ context.Context, _ *bench, _ *fleet, in input) opResult {
	outs := sweep.RunProgress(in.points, 2, nil)
	for _, o := range outs {
		if o.Err != nil || o.Result == nil {
			return opResult{fail: fmt.Sprintf("sweep point %s: %v", o.Point.Name, o.Err)}
		}
	}
	return opResult{runs: len(outs), checks: func() ([]check, error) {
		cs := make([]check, len(outs))
		for i, o := range outs {
			cs[i] = check{scenario: o.Point.Scenario, res: o.Result}
		}
		return cs, nil
	}}
}

// doBatch submits one grid to the coordinator and streams every shard's
// result; the op ends with the last line.
func doBatch(ctx context.Context, _ *bench, f *fleet, in input) opResult {
	sub, err := f.coordClient.SubmitBatch(ctx, in.grid)
	if err != nil {
		return opResult{fail: err.Error()}
	}
	n := int(sub.Expanded)
	got := make([][]byte, n)
	ids := make([]string, n)
	r := opResult{batchID: sub.ID, submits: 1}
	_, err = f.coordClient.StreamBatchResults(ctx, sub.ID, func(l serve.BatchResultLine) error {
		now := time.Now()
		if r.lines == 0 {
			r.firstLine = now
		}
		r.lastLine = now
		r.lines++
		switch {
		case l.Index < 0 || l.Index >= int64(n) || got[l.Index] != nil:
			return fmt.Errorf("batch %s: unexpected or repeated shard index %d", sub.ID, l.Index)
		case l.Status != serve.ShardCompleted || len(l.Result) == 0:
			return fmt.Errorf("batch %s shard %d: status %s %s", sub.ID, l.Index, l.Status, l.Error)
		}
		got[l.Index], ids[l.Index] = l.Result, l.ID
		if l.CacheHit {
			r.cacheHitLines++
		}
		return nil
	})
	if err == nil && r.lines != n {
		err = fmt.Errorf("batch %s: stream ended after %d of %d shards", sub.ID, r.lines, n)
	}
	if err != nil {
		return opResult{fail: err.Error(), batchID: sub.ID}
	}
	r.runs, r.shardIDs = n, ids
	r.checks = func() ([]check, error) {
		pts, err := in.grid.Points()
		if err != nil || len(pts) != n {
			return nil, fmt.Errorf("batch %s: expanding its grid locally: %d points, %v", sub.ID, len(pts), err)
		}
		cs := make([]check, n)
		for i, p := range pts {
			cs[i] = check{scenario: p.Scenario, id: ids[i], got: got[i]}
		}
		return cs, nil
	}
	return r
}

// doProtocolPair runs in.scenario under WRT-Ring and then under TPT, one
// after the other, as one op. A WRT-Ring run of the long-sim shape takes
// about three times as long as a TPT one, so ops of one run alternating the
// protocols would put the median in the gap between two modes, where it
// jumps from run to run; an op of one run each keeps the distribution
// unimodal.
func doProtocolPair(ctx context.Context, c *serve.Client, in input) opResult {
	var r opResult
	var checks []func() ([]check, error)
	for _, p := range []wrtring.Protocol{wrtring.WRTRing, wrtring.TPT} {
		s := in.scenario
		s.Protocol = p
		one := doSingle(ctx, c, input{scenario: s}, 0)
		if one.fail != "" {
			return one
		}
		r.runs += one.runs
		r.submits += one.submits
		checks = append(checks, one.checks)
	}
	r.checks = func() ([]check, error) {
		var cs []check
		for _, get := range checks {
			c, err := get()
			if err != nil {
				return nil, err
			}
			cs = append(cs, c...)
		}
		return cs, nil
	}
	return r
}

// doSingle submits one scenario through the client's retrying submit and
// waits for its result, polling every poll (0: the client's default). A
// scenario's bytes are checked against in.ref whenever it is set.
func doSingle(ctx context.Context, c *serve.Client, in input, poll time.Duration) opResult {
	resp, err := c.SubmitScenariosRetry(ctx, []wrtring.Scenario{in.scenario}, serve.RetryPolicy{})
	if err != nil {
		return opResult{fail: err.Error()}
	}
	run := resp.Runs[0]
	switch run.Status {
	case serve.SubmitQueued, serve.SubmitCached, serve.SubmitCoalesced:
	default:
		return opResult{fail: fmt.Sprintf("submit answered %q: %s", run.Status, run.Error)}
	}
	st, err := c.Wait(ctx, run.ID, poll)
	if err != nil {
		return opResult{fail: err.Error()}
	}
	if st.Status != serve.StateDone.String() || len(st.Result) == 0 {
		return opResult{fail: fmt.Sprintf("run %s ended %q without a result: %s", run.ID, st.Status, st.Error)}
	}
	r := opResult{runs: 1, submits: 1, cached: run.Status == serve.SubmitCached}
	if in.ref != nil {
		if !bytes.Equal(st.Result, in.ref) {
			return opResult{fail: fmt.Sprintf("run %s: result bytes differ from the local reference", run.ID)}
		}
		return r
	}
	got := st.Result
	r.checks = func() ([]check, error) { return []check{{scenario: in.scenario, id: run.ID, got: got}}, nil }
	return r
}

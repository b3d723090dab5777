package main

import (
	"math"
	"slices"
)

// metricDef names one reported metric. The lists below are mirrored by
// BENCHMARK.json at the repository root (TestBenchmarkJSONMatchesCode keeps
// the two in step); BENCHMARK.json adds each end-to-end metric's bound.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. The failed share of operations is not among them because
// it is zero on every correct run; it is printed in the report and carried
// by the result line's attempted/failed counts instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"runs_per_s", "runs/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"alloc_kb_per_run", "KiB", "lower"},
}

// perLayer are the single-layer metrics a traced run reports. Times are
// means; "per_op" divides by the workload's operations (a sweep, a batch, a
// single run or long-sim's pair of runs, see the README).
var perLayer = []metricDef{
	{"sim.slots_per_s", "slots/s", "higher"},
	{"sim.allocs_per_slot", "count", "lower"},
	{"wrtring.build_us", "us", "lower"},
	{"wrtring.arena_build_us", "us", "lower"},
	{"wrtring.encode_us", "us", "lower"},
	{"wrtring.result_bytes", "bytes", "lower"},
	{"wrtring.key_us", "us", "lower"},
	{"wrtring.canonical_encodes_per_op", "count", "lower"},
	{"runner.run_us", "us", "lower"},
	{"queue.depth_max", "count", "lower"},
	{"queue.busy_frac", "ratio", "higher"},
	{"queue.admitted_per_op", "count", "lower"},
	{"queue.coalesced", "count", "higher"},
	{"queue.rejected", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.disk_hit_frac", "ratio", "lower"},
	{"cache.evictions_per_op", "count", "lower"},
	{"cache.get_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.puts_per_op", "count", "lower"},
	{"store.corruptions", "count", "lower"},
	{"worker.http.submit_ms", "ms", "lower"},
	{"worker.http.status_ms", "ms", "lower"},
	{"worker.http.requests_per_op", "count", "lower"},
	{"worker.http.bytes_per_op", "bytes", "lower"},
	{"coord.http.submit_ms", "ms", "lower"},
	{"coord.http.status_self_ms", "ms", "lower"},
	{"cluster.status_polls_per_job", "count", "lower"},
	{"cluster.dispatch_ms", "ms", "lower"},
	{"cluster.rejected_per_shard", "count", "lower"},
	{"cluster.remote_cache_hits", "count", "higher"},
	{"cluster.redispatched", "count", "lower"},
	{"batch.first_line_ms", "ms", "lower"},
	{"batch.line_gap_ms", "ms", "lower"},
	{"batch.cache_hit_shards", "count", "higher"},
	{"client.submit_ms", "ms", "lower"},
	{"client.status_polls_per_op", "count", "lower"},
	{"client.retries_per_op", "count", "lower"},
	{"gen.lag_p50_ms", "ms", "lower"},
	{"gen.lag_p99_ms", "ms", "lower"},
}

// minBeyond is the sample-count rule for tail percentiles: a percentile is
// only meaningful with at least this many samples above it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of samples (0 when empty).
// samples is sorted in place.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	return samples[rank(len(samples), p)]
}

// rank is the 0-based nearest-rank index of the p-quantile of n samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n))) - 1
	return min(max(k, 0), n-1)
}

// beyond counts the samples that lie above the nearest-rank p-quantile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// mean returns the arithmetic mean (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the middle value of xs, or the mean of the two middle
// values (0 when empty).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default exclusive
// method), the definition the benchmark's spread rule is stated in. It
// needs at least two values; with one it returns that value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := slices.Clone(xs)
	slices.Sort(data)
	ld := len(data)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

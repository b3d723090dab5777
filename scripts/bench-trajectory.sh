#!/usr/bin/env bash
# bench-trajectory.sh — append the tracked benchmarks' best-of numbers
# (per-slot hot path: RunForN64, KernelScheduleAndFire; whole-grid rate:
# GridThroughput; durable store: StorePut, StoreGet, StoreOpen) as one
# sequence point to the committed perf trajectory
# (benchmarks/bench_results.csv) and emit a machine-readable snapshot
# BENCH_<seq>.json, both under benchmarks/ (for CI artifact upload) and at
# the repo root (the published trajectory point for this PR).
#
# Unlike bench.sh/bench-compare.sh (a machine-local pass/fail regression
# gate), the trajectory is a committed history: one row group per promoted
# measurement, so the slots/sec and runs/sec curves across PRs are visible
# in the repo. CI runs this non-blocking and uploads the JSON; a row only
# enters the committed CSV when a PR author promotes numbers measured on
# their machine.
#
# Usage:
#   scripts/bench-trajectory.sh
#
# Environment:
#   BENCH_COUNT  -count repetitions; the minimum ns/op rep is recorded (default 3)
#   BENCH_TIME   -benchtime per benchmark (unset: go's default 1s)
#   BENCH_LABEL  label column for the new rows (default: current branch name)
#   BENCH_SEQ    sequence number for the new rows (default: max existing + 1)
set -euo pipefail
cd "$(dirname "$0")/.."

csv=benchmarks/bench_results.csv
count="${BENCH_COUNT:-3}"
label="${BENCH_LABEL:-$(git rev-parse --abbrev-ref HEAD 2>/dev/null || echo local)}"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
# A trailing + marks numbers measured on a dirty worktree.
if ! git diff --quiet 2>/dev/null; then
	commit="${commit}+"
fi
today="$(date -u +%Y-%m-%d)"

timeflag=()
if [ -n "${BENCH_TIME:-}" ]; then
	timeflag=(-benchtime "$BENCH_TIME")
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
go test -run '^$' -bench 'BenchmarkRunForN64' -benchmem \
	"${timeflag[@]}" -count "$count" . | tee "$raw"
go test -run '^$' -bench 'BenchmarkKernelScheduleAndFire' -benchmem \
	"${timeflag[@]}" -count "$count" ./internal/sim | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkGridThroughput' -benchmem \
	"${timeflag[@]}" -count "$count" ./internal/runner | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkStore' -benchmem \
	"${timeflag[@]}" -count "$count" ./internal/store | tee -a "$raw"

if [ ! -f "$csv" ]; then
	echo "seq,label,date,commit,benchmark,ns_per_op,slots_per_sec,bytes_per_op,allocs_per_op,allocs_per_run" > "$csv"
fi
seq="${BENCH_SEQ:-$(awk -F, 'NR>1 && $1+0>m {m=$1+0} END {print m+1}' "$csv")}"

# Best-of (minimum ns/op) per benchmark across the -count reps, keeping the
# companion metrics from the same rep. The -N GOMAXPROCS suffix is stripped.
# slots_per_sec holds the benchmark's native rate metric: slots/sec for the
# per-slot benchmarks, runs/sec (whole scenarios per second) for the grid.
awk -v seq="$seq" -v label="$label" -v date="$today" -v commit="$commit" '
/^Benchmark/ {
	name = $1
	sub(/^Benchmark/, "", name)
	sub(/-[0-9]+$/, "", name)
	ns = ""; sps = ""; bytes = ""; allocs = ""; apr = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op")      ns     = $(i-1)
		if ($i == "slots/sec")  sps    = $(i-1)
		if ($i == "runs/sec")   sps    = $(i-1)
		if ($i == "B/op")       bytes  = $(i-1)
		if ($i == "allocs/op")  allocs = $(i-1)
		if ($i == "allocs/run") apr    = $(i-1)
	}
	if (ns == "") next
	if (!(name in best) || ns + 0 < best[name] + 0) {
		best[name] = ns; S[name] = sps; B[name] = bytes; A[name] = allocs; R[name] = apr
	}
	if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
	for (j = 1; j <= n; j++) {
		name = order[j]
		printf "%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n",
			seq, label, date, commit, name, best[name], S[name], B[name], A[name], R[name]
	}
}' "$raw" >> "$csv"

out="benchmarks/BENCH_${seq}.json"
awk -F, -v seq="$seq" '
NR > 1 && $1 == seq {
	if (rows != "") rows = rows ",\n"
	rows = rows sprintf("    {\"benchmark\": \"%s\", \"ns_per_op\": %s, \"rate_per_sec\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"allocs_per_run\": %s}",
		$5, $6, ($7 == "" ? "null" : $7), $8, $9, ($10 == "" ? "null" : $10))
	label = $2; date = $3; commit = $4
}
END {
	printf "{\n  \"seq\": %s,\n  \"label\": \"%s\",\n  \"date\": \"%s\",\n  \"commit\": \"%s\",\n  \"results\": [\n%s\n  ]\n}\n",
		seq, label, date, commit, rows
}' "$csv" > "$out"

# Publish the snapshot at the repo root as well — the committed trajectory
# point for the PR that promoted these rows.
cp "$out" "BENCH_${seq}.json"

echo "appended trajectory point $seq to $csv; wrote $out and BENCH_${seq}.json" >&2

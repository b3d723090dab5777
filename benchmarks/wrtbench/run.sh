#!/usr/bin/env bash
# Builds wrtbench from the source tree and runs it with the given arguments.
# Run it from the repository root; everything the build writes stays under
# .bench_build/ there.
#
#   bash benchmarks/wrtbench/run.sh --workload hits-hot --seed 1 --seconds 20 --trace 0
#   bash benchmarks/wrtbench/run.sh compare parent-*.jsonl -- change-*.jsonl
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"

# The build cache, the compiler's and linker's temporary files and the go
# command's own config (telemetry counters) default to places outside the
# checkout.
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
# No user flags or workspace, and never a download: the module needs none.
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd benchmarks/wrtbench && go build -o "$build/wrtbench" .)
exec "$build/wrtbench" "$@"

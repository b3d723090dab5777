#!/usr/bin/env bash
# fleet-smoke: boot the service fleet from the real binaries — store-backed
# wrtserved workers w1 and w2 behind a wrtcoord coordinator, each its own
# process on a localhost port — and drive it with wrtsweep and curl:
#   1. every remote pass of a G-point grid prints exactly the in-process CSV;
#   2. after two passes the fleet has admitted G simulations and the
#      coordinator has created 2 batches: the second pass is fully cached.
#      Each pass costs one sub-batch per owner, so w1 and w2 have created
#      4 batches between them;
#   3. POST /v1/runs plus a held GET /v1/runs/{id}?wait= answers done with a
#      result, and posting the scenario again answers cached;
#   4. after every process is killed and restarted on the same -store-dirs,
#      a pass admits 0, the workers serve G results from disk, and they
#      have created 2 batches between them;
#   5. a third worker w3 joins over POST /v1/workers, the rebalancer plans
#      keys for it, w3 pulls all of them, and a pass still admits 0;
#   6. wrtstore verify passes on all three shards; w1 + w2 hold G + 1
#      results (the grid and the single run) and w3 the planned keys.
# G = 300 is more scenarios than one POST /v1/runs may carry (256).
# Used by `make fleet-smoke` and CI.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=$(mktemp -d)
STORES=$(mktemp -d)
PIDS=()
cleanup() {
  kill "${PIDS[@]}" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$BIN" "$STORES"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/wrtserved ./cmd/wrtcoord ./cmd/wrtsweep ./cmd/wrtstore

COORD=http://127.0.0.1:18190
W1=http://127.0.0.1:18181
W2=http://127.0.0.1:18182
W3=http://127.0.0.1:18183
G=300

fail() {
  echo "fleet-smoke: $*" >&2
  exit 1
}

expect() { # what got want
  [ "$2" = "$3" ] || fail "$1: got ${2:-nothing}, want $3"
}

start_worker() { # id url
  "$BIN/wrtserved" -addr "${2#http://}" -id "$1" -workers 2 \
    -store-dir "$STORES/$1" -store-no-sync &
  PIDS+=($!)
}

wait_healthy() { # url
  for _ in $(seq 1 100); do
    curl -sf "$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  fail "$1 never became healthy"
}

# The rebalancer sweeps on membership changes and every -rebalance. At 1h
# the join's own sweep is the only one, so no key is planned twice while
# its pull is still in flight, and w3's pulls can match the plan exactly.
start_fleet() {
  start_worker w1 "$W1"
  start_worker w2 "$W2"
  "$BIN/wrtcoord" -addr "${COORD#http://}" -worker "w1=$W1" -worker "w2=$W2" \
    -poll 5ms -health 250ms -rebalance 1h &
  PIDS+=($!)
  for url in "$W1" "$W2" "$COORD"; do wait_healthy "$url"; done
}

stop_fleet() {
  kill "${PIDS[@]}" 2>/dev/null || true
  for pid in "${PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done
  PIDS=()
}

metric() { # url name
  curl -sf "$1/metrics" | awk -v m="$2" '$1 == m {print $2}'
}

worker_batches() { # sub-batches w1 and w2 have created
  echo $(($(metric "$W1" wrtserved_batches_created_total) + $(metric "$W2" wrtserved_batches_created_total)))
}

grid() {
  "$BIN/wrtsweep" -over seed -values "$(seq -s, 1 150)" -protocols both -dur 2000 "$@"
}

LOCAL=$(grid)
expect "in-process grid rows" "$(($(printf '%s\n' "$LOCAL" | wc -l) - 1))" "$G"

remote_pass() { # what
  [ "$(grid -server "$COORD")" = "$LOCAL" ] || fail "$1: CSV differs from the in-process run"
}

# ---- 1, 2: a cold and a warm pass ------------------------------------------

start_fleet
remote_pass "cold pass"
remote_pass "warm pass"
expect "fleet admissions after two passes" "$(metric "$COORD" wrtcoord_fleet_admitted_total)" "$G"
expect "batches created" "$(metric "$COORD" wrtcoord_batches_created_total)" 2
expect "owner sub-batches after two passes" "$(worker_batches)" 4

# ---- 3: the single-run API -------------------------------------------------

RUN='{"scenarios": [{"N": 8, "Seed": 1000, "Duration": 2000}]}'
sub=$(curl -sf -X POST "$COORD/v1/runs" -d "$RUN")
id=$(printf '%s' "$sub" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$id" ] || fail "POST /v1/runs answered $sub"
st=$(curl -sf "$COORD/v1/runs/$id?wait=10s")
case "$st" in
*'"status":"done"'*'"result":{'*) ;;
*) fail "held read of $id answered ${st:0:200}" ;;
esac
again=$(curl -sf -X POST "$COORD/v1/runs" -d "$RUN")
case "$again" in
*'"status":"cached"'*) ;;
*) fail "resubmitted single run answered $again, want cached" ;;
esac
echo "fleet-smoke: two passes of $G points match the in-process CSV; single run done, then cached"

# ---- 4: warm restart from the stores ---------------------------------------

stop_fleet
start_fleet
remote_pass "pass after restart"
expect "fleet admissions after restart" "$(metric "$COORD" wrtcoord_fleet_admitted_total)" 0
disk_hits=$(($(metric "$W1" wrtserved_store_hits_total) + $(metric "$W2" wrtserved_store_hits_total)))
expect "store hits after restart" "$disk_hits" "$G"
expect "owner sub-batches after restart" "$(worker_batches)" 2
echo "fleet-smoke: restarted fleet served $G results from disk, 0 new simulations"

# ---- 5: w3 joins and is handed its key range -------------------------------

start_worker w3 "$W3"
wait_healthy "$W3"
curl -sf -X POST "$COORD/v1/workers" -d "{\"id\": \"w3\", \"url\": \"$W3\"}" >/dev/null
pulled=0
planned=0
for _ in $(seq 1 100); do
  pulled=$(metric "$W3" wrtserved_handoff_pulled_total)
  planned=$(metric "$COORD" wrtcoord_rebalance_keys_total)
  [ "${planned:-0}" -gt 0 ] && [ "${pulled:-0}" -ge "$planned" ] && break
  sleep 0.1
done
[ "${planned:-0}" -gt 0 ] || fail "the rebalancer planned no keys for w3"
expect "keys w3 pulled" "$pulled" "$planned"
remote_pass "pass after join"
expect "fleet admissions after join" "$(metric "$COORD" wrtcoord_fleet_admitted_total)" 0
echo "fleet-smoke: w3 joined and pulled $pulled/$planned planned keys, 0 new simulations"

# ---- 6: fsck the shards offline --------------------------------------------

stop_fleet
entries() { # id
  "$BIN/wrtstore" verify -dir "$STORES/$1" >/dev/null || fail "wrtstore verify failed on $1"
  "$BIN/wrtstore" stat -dir "$STORES/$1" | awk '/^entries:/ {print $2}'
}
w1=$(entries w1)
w2=$(entries w2)
w3=$(entries w3)
# Handoff copies results, it does not move them.
expect "w1 + w2 entries" "$((w1 + w2))" "$((G + 1))"
expect "w3 entries" "$w3" "$planned"

echo "fleet-smoke: OK — $G-point grid byte-identical on every pass, cached, durable across restart and join"

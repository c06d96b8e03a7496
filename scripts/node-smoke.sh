#!/usr/bin/env bash
# node-smoke.sh — end-to-end smoke of the live observability surface
# (DESIGN.md §12): launch a small nectar-node cluster on localhost, scrape
# /healthz and /metrics while it runs, and assert the detection counters
# advance to the expected final state. Also produces a sample trace
# artifact from nectar-sim for the CI upload and checks its Chrome
# conversion.
#
# Usage: scripts/node-smoke.sh [outdir]   (default: smoke-out)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-smoke-out}
mkdir -p "$OUT"

N=6        # ring of 6: κ=2 > t=1 ⇒ NOT_PARTITIONABLE everywhere
ROUNDS=5   # n-1
BASE=$((20000 + RANDOM % 20000))

go build -o "$OUT/nectar-node" ./cmd/nectar-node
go build -o "$OUT/nectar-sim" ./cmd/nectar-sim
go build -o "$OUT/nectar-trace" ./cmd/nectar-trace

# Deployment file: ring topology, one admin port per node.
{
  echo -n "{\"n\": $N, \"t\": 1, \"key_seed\": 99, \"scheme\": \"hmac\", \"round_ms\": 200, \"nodes\": ["
  for ((i = 0; i < N; i++)); do
    [ "$i" -gt 0 ] && echo -n ", "
    echo -n "{\"id\": $i, \"addr\": \"127.0.0.1:$((BASE + i))\"}"
  done
  echo -n "], \"edges\": ["
  for ((i = 0; i < N; i++)); do
    [ "$i" -gt 0 ] && echo -n ", "
    echo -n "[$i, $(((i + 1) % N))]"
  done
  echo "]}"
} > "$OUT/cluster.json"

pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
}
trap cleanup EXIT

# Launch with reconnect mode on and a linger window long enough to scrape
# the final state after the ~1s run. A SHARED -start-at instant keeps the
# round grids of all processes aligned (per-process -start-in would skew
# them by launch latency, losing final-round messages).
START=$(date -u -d '+2 seconds' +%Y-%m-%dT%H:%M:%SZ)
for ((i = 0; i < N; i++)); do
  "$OUT/nectar-node" -config "$OUT/cluster.json" -id "$i" -start-at "$START" \
    -admin "127.0.0.1:$((BASE + 100 + i))" -reconnect -linger 15s \
    > "$OUT/node$i.log" 2>&1 &
  pids+=($!)
done

admin() { echo "127.0.0.1:$((BASE + 100 + $1))"; }

# Every admin endpoint must come up before the run starts.
for ((i = 0; i < N; i++)); do
  for attempt in $(seq 1 50); do
    if curl -fsS "http://$(admin "$i")/healthz" > /dev/null 2>&1; then break; fi
    [ "$attempt" -eq 50 ] && { echo "FAIL: node $i admin never came up"; cat "$OUT/node$i.log"; exit 1; }
    sleep 0.1
  done
done
echo "all $N admin endpoints up"

before=$(curl -fsS "http://$(admin 0)/metrics" | awk '/^nectar_node_rounds_completed_total/ {print $2}')
before=${before:-0}

# Wait out start delay + run, then scrape the final state of every node.
sleep 4
for ((i = 0; i < N; i++)); do
  h=$(curl -fsS "http://$(admin "$i")/healthz")
  echo "node $i healthz: $h"
  echo "$h" | grep -q '"status":"ok"' || { echo "FAIL: node $i unhealthy"; exit 1; }
  # Peer-table health rides on /healthz. peer_downs can legitimately be
  # nonzero here (peers that finish first close their connections), but
  # the surface must exist and no protocol send may have been dropped.
  echo "$h" | grep -q '{"k":"peer_downs","v":' || { echo "FAIL: node $i healthz lacks peer-table detail"; exit 1; }
  echo "$h" | grep -q '{"k":"sends_dropped","v":0}' || { echo "FAIL: node $i dropped sends"; exit 1; }

  m=$(curl -fsS "http://$(admin "$i")/metrics")
  echo "$m" > "$OUT/metrics-node$i.txt"
  rounds=$(echo "$m" | awk '/^nectar_node_rounds_completed_total/ {print $2}')
  [ "${rounds:-0}" = "$ROUNDS" ] || { echo "FAIL: node $i rounds_completed=$rounds, want $ROUNDS"; exit 1; }
  echo "$m" | grep -q '^nectar_node_done 1$' || { echo "FAIL: node $i not done"; exit 1; }
  echo "$m" | grep -q '^nectar_node_decision_partitionable 0$' \
    || { echo "FAIL: node $i wrong verdict (ring-6 t=1 must be NOT_PARTITIONABLE)"; exit 1; }
  echo "$m" | grep -q "^nectar_node_reachable $N$" || { echo "FAIL: node $i reachable != $N"; exit 1; }
  sent=$(echo "$m" | awk '/^nectar_node_msgs_sent_total/ {print $2}')
  [ "${sent:-0}" -gt 0 ] || { echo "FAIL: node $i sent no messages"; exit 1; }
  curl -fsS "http://$(admin "$i")/debug/pprof/cmdline" > /dev/null \
    || { echo "FAIL: node $i pprof unreachable"; exit 1; }
done
[ "$before" -lt "$ROUNDS" ] || { echo "FAIL: rounds counter did not advance ($before -> $ROUNDS)"; exit 1; }
echo "detection counters advanced: rounds $before -> $ROUNDS on all $N nodes"

# Sample trace artifact: a deterministic engine trace from nectar-sim.
"$OUT/nectar-sim" -topo harary -n 12 -k 4 -t 1 -trace "$OUT/sample-trace.jsonl" > /dev/null
lines=$(wc -l < "$OUT/sample-trace.jsonl")
[ "$lines" -gt 0 ] || { echo "FAIL: empty trace artifact"; exit 1; }
echo "trace artifact: $OUT/sample-trace.jsonl ($lines events)"

# The one trace converter: its Chrome document must parse and hold one
# traceEvents entry per JSONL event.
"$OUT/nectar-trace" chrome "$OUT/sample-trace.jsonl" > "$OUT/sample-trace.json"
chrome=$(python3 -c 'import json, sys; print(len(json.load(open(sys.argv[1]))["traceEvents"]))' \
  "$OUT/sample-trace.json") || { echo "FAIL: nectar-trace chrome wrote invalid JSON"; exit 1; }
[ "$chrome" -eq "$lines" ] || { echo "FAIL: $chrome Chrome events for $lines JSONL events"; exit 1; }
echo "chrome conversion: $chrome events"

# Trace analytics over the artifact: summarize must render (saved as an
# artifact alongside the trace) and lint must come back clean — it exits
# nonzero on any anomaly finding.
"$OUT/nectar-trace" summarize "$OUT/sample-trace.jsonl" | tee "$OUT/trace-summary.txt"
"$OUT/nectar-trace" lint "$OUT/sample-trace.jsonl" \
  || { echo "FAIL: nectar-trace lint found anomalies in a clean run"; exit 1; }

echo "node smoke OK"

#!/usr/bin/env bash
# Regenerate BENCH_baseline.json — the committed perf trajectory of the
# paper's evaluation benchmarks (Figs. 3-7) plus the hot-path
# micro-benchmarks (BenchmarkDeliver, BenchmarkVerifyChain, DESIGN.md §9)
# and the engine's own cost per routed message (BenchmarkEngineSelf,
# DESIGN.md §6).
#
# Future PRs compare against this file with:
#   go run ./cmd/benchdiff compare BENCH_baseline.json new.json
# (CI does this automatically, warn-only; see .github/workflows/ci.yml.)
#
# Usage: scripts/bench.sh            # 3 iterations per benchmark
#        BENCHTIME=10x scripts/bench.sh
#
# The large-n scaling benchmarks (DESIGN.md §14) are run on demand and
# not committed — full detections at n=10³/10⁴ take minutes and tens of
# gigabytes, so no snapshot of them rides in the repository:
#   SCALE=1 OUT=scale.json scripts/bench.sh   # 1 iteration; OUT defaults to a temp file
#
# The distributed-sweep benchmarks (DESIGN.md §15) — serial local vs
# coordinator + loopback worker fleets — are also a separate file:
#   DIST=1 scripts/bench.sh          # writes BENCH_dist.json
set -euo pipefail
cd "$(dirname "$0")/.."

PKGS=". ./internal/nectar ./internal/sig ./internal/rounds"
if [[ -n "${SCALE:-}" ]]; then
  BENCHTIME="${BENCHTIME:-1x}"
  PATTERN='^(BenchmarkLargeN$|BenchmarkKappaIncremental$)'
  OUT="${OUT:-$(mktemp)}"
  TIMEOUT=90m # the connected n=10⁴ flood alone is minutes of Θ(n·m) work
  export NECTAR_SCALE=1 # unlock the heavy n=10⁴ cases
elif [[ -n "${DIST:-}" ]]; then
  BENCHTIME="${BENCHTIME:-3x}"
  PATTERN='^BenchmarkDist'
  OUT="${OUT:-BENCH_dist.json}"
  TIMEOUT=10m
  PKGS="./internal/exp/dist"
else
  BENCHTIME="${BENCHTIME:-3x}"
  PATTERN='^(BenchmarkFig[34567]|BenchmarkDeliver$|BenchmarkEmitRelay$|BenchmarkVerifyChain$|BenchmarkEngineSelf$)'
  OUT="${OUT:-BENCH_baseline.json}"
  TIMEOUT=20m
fi
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# shellcheck disable=SC2086
go test -run='^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" \
  -count 1 -timeout "$TIMEOUT" \
  $PKGS | tee "$RAW"

go run ./cmd/benchdiff parse -note "scripts/bench.sh -benchtime $BENCHTIME" \
  < "$RAW" > "$OUT"
echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)"

#!/bin/sh
# Regenerate the committed perf-database baselines from a reference
# run of the current tree.
#
# Usage: from the repo root, with a RelWithDebInfo build in ./build:
#
#   sh bench/baselines/refresh.sh
#
# What it does:
#   1. Runs aosd_report / aosd_counters (plain and --kernel-windows)
#      and aosd_spans on the current tree. These documents are
#      deterministic — any machine produces the same bytes.
#   2. Runs the simperf benchmark suite and folds the batched-vs-
#      per-event charging ratio into BENCH_traffic.json.
#      These numbers are wall-clock and machine-dependent; they seed
#      the bench trajectory and earn themselves MAD slack in the
#      rolling band as real runs accumulate.
#   3. Rebuilds bench/baselines/perfdb.jsonl: one record per recent
#      commit (oldest first, each keyed by the commit's own hash and
#      committer date so `aosd_bisect --db --from <commit>` resolves),
#      all carrying the reference documents; the newest also carries
#      the two BENCH suites.
#
# Refresh whenever a PR intentionally moves simulated figures (the
# same PRs that regenerate tests/expected_*.json), then commit the
# result. tests/test_trend.cc checks the committed baselines agree
# with the current simulator, so a stale baseline fails tier-1.

set -e

BUILD=${BUILD:-build}
OUT=bench/baselines
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== reference documents"
"$BUILD"/tools/aosd_report --json "$TMP"/report.json
"$BUILD"/tools/aosd_counters --json "$TMP"/counters.json
"$BUILD"/tools/aosd_counters --kernel-windows \
    --json "$TMP"/kernel_windows.json
"$BUILD"/tools/aosd_spans --json "$TMP"/spans.json
"$BUILD"/tools/aosd_traffic --json "$TMP"/traffic.json \
    --min-explained 100

echo "== benchmarks"
"$BUILD"/bench/simperf \
    --benchmark_filter='BM_ReportFull|BM_WorkloadRun|BM_HandlerExecution|BM_TlbTouch|BM_LrpcSimulation|BM_PrimitiveSpanTraced|BM_KernelWindow|BM_TrafficRun|BM_DashboardRender' \
    --benchmark_out="$OUT"/BENCH_simperf.json \
    --benchmark_out_format=json

echo "== fold batch-charging speedup"
python3 - "$OUT"/BENCH_simperf.json "$OUT"/BENCH_traffic.json <<'EOF'
import json, sys

raw = json.load(open(sys.argv[1]))
bench = {b['name']: b for b in raw['benchmarks']}
batched = bench['BM_KernelWindowBatched']
per_event = bench['BM_KernelWindowPerEvent']
doc = {
    'schema_version': 1,
    'generator': 'bench/baselines/refresh.sh',
    'batched_events_per_sec': batched['events_per_sec'],
    'per_event_events_per_sec': per_event['events_per_sec'],
    'speedup': (batched['events_per_sec'] /
                per_event['events_per_sec']),
    'traffic_run_real_time': bench['BM_TrafficRun']['real_time'],
    'time_unit': bench['BM_TrafficRun']['time_unit'],
}
json.dump(doc, open(sys.argv[2], 'w'), indent=1)
EOF

echo "== rebuild $OUT/perfdb.jsonl"
rm -f "$OUT"/perfdb.jsonl
COMMITS=$(git log --format='%H %cI' -3 | tac | awk '{print $1 "=" $2}')
LAST=$(git log --format='%H' -1)
for entry in $COMMITS; do
    commit=${entry%%=*}
    when=${entry#*=}
    if [ "$commit" = "$LAST" ]; then
        BENCH_ARGS="--bench simperf=$OUT/BENCH_simperf.json \
                    --bench traffic=$OUT/BENCH_traffic.json"
    else
        BENCH_ARGS=""
    fi
    # shellcheck disable=SC2086
    "$BUILD"/tools/aosd_trend ingest --db "$OUT"/perfdb.jsonl \
        --commit "$commit" --time "$when" \
        --host reference --flags gcc-RelWithDebInfo \
        --report "$TMP"/report.json \
        --counters "$TMP"/counters.json \
        --kernel-windows "$TMP"/kernel_windows.json \
        --spans "$TMP"/spans.json \
        --traffic "$TMP"/traffic.json \
        $BENCH_ARGS
done

"$BUILD"/tools/aosd_trend list --db "$OUT"/perfdb.jsonl
echo "== done; review and commit bench/baselines/"

#!/usr/bin/env bash
# Full local gate: the tier-1 verify build/test cycle, the dump grammars and
# perf smoke, then the same test suite under AddressSanitizer + UBSan (with
# leak detection) and under ThreadSanitizer. Sanitizers are configured from
# the command line (CMAKE_CXX_FLAGS / CMAKE_EXE_LINKER_FLAGS), each in its
# own build directory. Run from the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: configure + build + ctest (build/) =="
cmake -B build -S .
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo
echo "== dumps: trace / explain / slow-query-log / metrics grammars =="
scripts/check_dumps.sh build

echo
echo "== perf smoke: bench --json emission + check_perf schema/comparator =="
# A deliberately tiny fig16 run: enough to exercise the JSON dump and the
# comparator plumbing without turning the gate into a perf benchmark. The
# committed BENCH_fig16.json (generated at exactly these smoke sizes) is
# the default baseline so every PR compares p99 against a real trajectory;
# override with CHECK_PERF_BASELINE= (empty skips the comparison).
build/bench/bench_fig16 --rows=20000 --duration-ms=120 --qps=100 \
  --json=build/BENCH_fig16_smoke.json > /dev/null
CHECK_PERF_BASELINE="${CHECK_PERF_BASELINE-BENCH_fig16.json}"
scripts/check_perf.sh ${CHECK_PERF_BASELINE:+"${CHECK_PERF_BASELINE}"} \
  build/BENCH_fig16_smoke.json
# fig11 smoke: the indexing-technique engines at one qps point plus the
# broker saturation phase (which also prints the exit health reports).
# The broker phase deliberately sweeps past the knee, so its saturated
# points are noisy — compare with looser thresholds than the default
# 2x/5ms so the gate only trips on order-of-magnitude collapses.
build/bench/bench_fig11 --rows=20000 --duration-ms=120 --qps=100 \
  --json=build/BENCH_fig11_smoke.json > /dev/null
CHECK_PERF_FIG11_BASELINE="${CHECK_PERF_FIG11_BASELINE-BENCH_fig11.json}"
CHECK_PERF_RATIO="${CHECK_PERF_FIG11_RATIO:-4.0}" \
CHECK_PERF_SLACK_MS="${CHECK_PERF_FIG11_SLACK_MS:-50.0}" \
scripts/check_perf.sh ${CHECK_PERF_FIG11_BASELINE:+"${CHECK_PERF_FIG11_BASELINE}"} \
  build/BENCH_fig11_smoke.json
# Scan-kernel and group-by-sweep curves at reduced size: gates the JSON
# grammar per PR (full-size runs populate EXPERIMENTS.md). Both benches
# abort on any answer that differs from the row oracle's, and the sweep's
# key crosses the dense limit here, so its alloc/group gate covers the
# radix flush.
build/bench/bench_scan_batch --rows=50000 \
  --json=build/BENCH_scan_batch_smoke.json > /dev/null
scripts/check_perf.sh ${CHECK_PERF_SCAN_BASELINE:+"${CHECK_PERF_SCAN_BASELINE}"} \
  build/BENCH_scan_batch_smoke.json
build/bench/bench_groupby_sweep --rows=100000 \
  --json=build/BENCH_groupby_smoke.json > /dev/null
scripts/check_perf.sh ${CHECK_PERF_GROUPBY_BASELINE:+"${CHECK_PERF_GROUPBY_BASELINE}"} \
  build/BENCH_groupby_smoke.json
# Filter-operator ablation at reduced size: exercises the container-pair
# bitmap kernels and the cost-based planner on all four paths; its built-in
# cardinality abort re-proves sorted == bitmap == scan == cost-based here.
build/bench/bench_ablation_sorted_vs_bitmap --rows=30000 \
  --json=build/BENCH_filter_smoke.json > /dev/null
scripts/check_perf.sh ${CHECK_PERF_FILTER_BASELINE:+"${CHECK_PERF_FILTER_BASELINE}"} \
  build/BENCH_filter_smoke.json

echo
echo "== sanitizers: ASan+UBSan+LSan configure + build + ctest (build-asan/) =="
cmake -B build-asan -S . \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build build-asan -j "${JOBS}"
(cd build-asan && UBSAN_OPTIONS=halt_on_error=1 \
  ctest --output-on-failure -j "${JOBS}")

echo
echo "== sanitizers: concurrency regression loop (ingest-while-query," \
     "quota reconfigure-during-admit, concurrent metrics, radix group-by," \
     "broker oracle fuzz) =="
# Repeat the tests with real thread interleavings a few times under the
# sanitizer build so rare schedules still get a chance to corrupt memory
# loudly (MutableSegment reader/writer race, TenantQuotaManager UAF, the
# ~64k-group row-oracle sweep and the hash-sharded combine, the broker
# oracle fuzz under injected faults and leader failover, and Dump()/
# snapshot-taking racing registration + observation churn).
(cd build-asan && UBSAN_OPTIONS=halt_on_error=1 \
  ctest --output-on-failure \
  -R 'mutable_segment_test|token_bucket_test|metrics_test|snapshot_test|health_test|groupby_radix_test|filter_fuzz_test|upsert_fuzz_test|broker_oracle_fuzz_test|topk_test' \
  --repeat until-fail:3)

echo
echo "== sanitizers: ThreadSanitizer configure + build + ctest (build-tsan/) =="
# Checks the concurrency model itself (scatter workers, consuming-segment
# reader/writer locks, lock-free metrics) rather than only the memory
# effects of a bad interleaving.
cmake -B build-tsan -S . -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan -j "${JOBS}"
(cd build-tsan && TSAN_OPTIONS=halt_on_error=1 \
  ctest --output-on-failure -j "${JOBS}")

echo
echo "All checks passed in ${ROOT}."

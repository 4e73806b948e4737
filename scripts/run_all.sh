#!/usr/bin/env sh
# One-shot reproduction: configure, build, run the full test suite, then
# every experiment and microbenchmark, teeing outputs next to the sources.
#
#   scripts/run_all.sh [build-dir]
#
# Exit status is non-zero if the build, any test, or any experiment's
# reproduction gate fails.
set -eu

BUILD_DIR="${1:-build}"
ROOT="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -G Ninja -S "$ROOT"
cmake --build "$BUILD_DIR"

# The full suite includes the `stress` label (property-based differential
# and self-stabilization suites); SELFSTAB_STRESS_ITERS scales their
# iteration counts if set in the environment.
ctest --test-dir "$BUILD_DIR" --output-on-failure 2>&1 \
  | tee "$ROOT/test_output.txt"

# Fast perf sanity before the expensive passes: the micro_kernels gate at
# smoke scale (<60s). A kernel-throughput regression fails here in seconds
# instead of at the end of the full bench sweep.
sh "$ROOT/scripts/bench_smoke.sh" "$BUILD_DIR"

# ThreadSanitizer pass over the concurrency-sensitive suites: the telemetry
# instruments (lock-free counters and histograms shared by the worker pool,
# plus the ExecutorParity threads = 1 vs >= 2 checks), SyncRunner's pooled
# path itself (ParallelRunner.*: degree-weighted chunks, the pooled fixpoint
# sweep, Aggregation on the pool), and the pooled differential suites. A
# separate build dir keeps sanitizer objects out of the main build.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -G Ninja -S "$ROOT" -DSELFSTAB_SANITIZE=thread
cmake --build "$TSAN_DIR" --target telemetry_tests engine_tests chaos_tests \
  stress_tests
{
  "$TSAN_DIR/tests/telemetry_tests"
  # SyncRunnerQuietRounds.*: the dense quiet-round skip at threads = 3 —
  # skipped rounds clear every worker's move queue without a pool barrier.
  "$TSAN_DIR/tests/engine_tests" \
    --gtest_filter='ParallelRunner.*:SyncRunnerQuietRounds.*'
  # Campaigns at threads >= 2: fault injection between pooled rounds (the
  # fingerprint suite runs every protocol and event kind at threads = 3).
  "$TSAN_DIR/tests/chaos_tests" --gtest_filter=\
'EngineCampaign.SerialAndParallelExecutorsAgree:EngineCampaignFingerprint.*'
  # '*Parallel*' selects ScheduleDifferentialParallel (every protocol in
  # core/, LeaderTree included) and KernelDifferentialParallel (the flat
  # kernels' shared CSR mirror and per-worker move queues on the pool).
  SELFSTAB_STRESS_ITERS="${SELFSTAB_TSAN_STRESS_ITERS:-3}" \
    "$TSAN_DIR/tests/stress_tests" --gtest_filter='*Parallel*'
  # Chaos soak under TSan: the fault-injection plumbing around the runner.
  SELFSTAB_STRESS_ITERS="${SELFSTAB_TSAN_STRESS_ITERS:-3}" \
    "$TSAN_DIR/tests/stress_tests" --gtest_filter='ChaosSoak.*'
} 2>&1 | tee "$ROOT/tsan_output.txt"

# AddressSanitizer pass over the beacon-simulator suites: the spatial-index
# rework moves neighbor caches and event queues onto flat vectors with
# in-place compaction and move-out pops, and each broadcast's arrival reads
# its payload and receiver list from a recycled batch slot, exactly the kind
# of code ASan catches misusing. The grid-vs-scan differential tests double
# as the workload.
ASAN_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_DIR" -G Ninja -S "$ROOT" -DSELFSTAB_SANITIZE=address
cmake --build "$ASAN_DIR" --target adhoc_tests chaos_tests stress_tests \
  engine_tests
{
  "$ASAN_DIR/tests/adhoc_tests"
  # The installed kernel owns the only CSR the runner reads, and setKernel
  # frees it: a span kept across a kernel swap or a pooled round would be a
  # use-after-free here.
  "$ASAN_DIR/tests/engine_tests" --gtest_filter='ParallelRunner.*:SetKernel.*'
  # Simulator fault injection: crashes and rejoins land while broadcasts are
  # in flight, so arrivals run against batch slots other broadcasts recycle.
  # The recovery monitor holds each window's topology by reference and
  # grows its BFS lazily, so every campaign doubles as a lifetime check.
  "$ASAN_DIR/tests/chaos_tests" \
    --gtest_filter='SimInjector.*:EngineCampaign*:RecoveryMonitor*'
  SELFSTAB_STRESS_ITERS="${SELFSTAB_ASAN_STRESS_ITERS:-3}" \
    "$ASAN_DIR/tests/stress_tests" --gtest_filter='NetworkDifferential*'
  # Flat-kernel differential under ASan: the SoA mirrors index raw CSR
  # offsets and (word,mask) bitset slices — exactly where an off-by-one
  # would read out of bounds while still passing the bit-identity check.
  SELFSTAB_STRESS_ITERS="${SELFSTAB_ASAN_STRESS_ITERS:-3}" \
    "$ASAN_DIR/tests/stress_tests" --gtest_filter='KernelDifferential.*'
  # Chaos soak under ASan: crash/rejoin churn and partition masks rebuild
  # graph edge lists and neighbor caches in place — the fault campaigns
  # exercise exactly the compaction paths ASan is here to police.
  SELFSTAB_STRESS_ITERS="${SELFSTAB_ASAN_STRESS_ITERS:-3}" \
    "$ASAN_DIR/tests/stress_tests" --gtest_filter='ChaosSoak.*'
} 2>&1 | tee "$ROOT/asan_output.txt"

# Benches append machine-readable results here (see
# bench/support/bench_json.hpp). The file name tracks the change number,
# read from the leading "PR <n>" of the last CHANGES.md line (one change may
# add several lines, and numbers can skip). The simulator perf gates live
# in scale_network, the chaos gates in soak_chaos, and the kernel gates in
# micro_kernels.
PR_NUM="$(tail -n 1 "$ROOT/CHANGES.md" | sed -n 's/^PR \([0-9][0-9]*\).*/\1/p')"
if [ -z "$PR_NUM" ]; then
  echo "run_all.sh: last CHANGES.md line does not start with 'PR <n>'" >&2
  exit 1
fi
BENCH_JSON="$ROOT/BENCH_PR${PR_NUM}.json"
: > "$BENCH_JSON"
export SELFSTAB_BENCH_JSON="$BENCH_JSON"

: > "$ROOT/bench_output.txt"
status=0
for b in "$BUILD_DIR"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "==> $b" | tee -a "$ROOT/bench_output.txt"
  if ! "$b" >> "$ROOT/bench_output.txt" 2>&1; then
    echo "FAILED: $b" | tee -a "$ROOT/bench_output.txt"
    status=1
  fi
done

exit "$status"

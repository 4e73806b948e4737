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

# Peak-memory gate: four 3·10^5-node selfstab runs (SMM from a random start,
# coloring, a corrupt-only SIS campaign, SIS on the flat kernel) must each
# stay within 1.5× the Graph's CSR at 2-byte slices (offsets and slice
# entries read from the run's --metrics memory ledger) plus 32 B per node
# and 8 MiB, so 4-byte slices, a second copy of the adjacency, per-node DOT
# strings built without --dot or a storage order that scatters SIS's
# bigger-neighbour words cannot come back silently.
python3 "$ROOT/scripts/rss_gate.py" "$BUILD_DIR/src/cli/selfstab"

# Fast perf sanity before the expensive passes: the micro_kernels gate at
# smoke scale (<60s). A kernel-throughput regression fails here in seconds
# instead of at the end of the full bench sweep.
sh "$ROOT/scripts/bench_smoke.sh" "$BUILD_DIR"

# ThreadSanitizer pass over the concurrency-sensitive suites. The
# process's one fork-join team, parallel::team(), carries every parallel
# pass at a width of its own: the round executor, the SIS slice build, the
# banded unit-disk build, isConnected, the verifiers and the simulator's
# windows. Covered here: the team itself (widths, nested and concurrent
# dispatches) and forEachBlock, the telemetry instruments (lock-free counters and
# histograms shared by the team's workers, plus the ExecutorParity
# threads = 1 vs >= 2 checks, among them
# EventLogsAreIdenticalAtEveryThreadCount), SyncRunner's parallel path
# (ParallelRunner.*: degree-weighted blocks claimed by whichever worker is
# free, the parallel fixpoint sweep, Aggregation on the team, two runners
# driven from two threads at once), the banded unit-disk build, the
# selfstab CLI dispatching every pass on the one team, and the parallel
# differential suites. A separate build dir keeps sanitizer objects out of
# the main build.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -G Ninja -S "$ROOT" -DSELFSTAB_SANITIZE=thread
cmake --build "$TSAN_DIR" --target telemetry_tests engine_tests chaos_tests \
  stress_tests graph_tests cli_tests analysis_tests core_tests
{
  "$TSAN_DIR/tests/telemetry_tests"
  # unitDiskGraph's bands: each worker counts its slots' neighbours into
  # their vertices' CSR offsets, then writes each list into its vertex's
  # disjoint slice of the targets.
  # SpinTeam.*: the fork-join team every parallel pass runs on (dispatch
  # at every width, parking, exception hand-off, nested and concurrent
  # dispatches run inline) and forEachBlock's block claiming.
  # Connectivity.*: isConnected's union-find links roots with
  # compare-and-swap from every worker and compresses paths in parallel.
  # Geometry.SpaceOrderRelabelsPointOrder: the space-ordered fill, whose
  # bands write consecutive runs of the targets.
  # LabelledIo.EdgesByLabel*: the writers' label-ordered edge stream, each
  # worker counting into and then filling its vertices' label slots.
  # Geometry.ParallelCellSortMatchesSerial: the cell sort's per-worker
  # counts and its scatter into shared members/sorted arrays.
  "$TSAN_DIR/tests/graph_tests" \
    --gtest_filter='Geometry.BandedBuildMatchesSerial:Geometry.SpaceOrderRelabelsPointOrder:Geometry.ParallelCellSortMatchesSerial:SpinTeam.*:Connectivity.*:LabelledIo.EdgesByLabel*'
  # The one-pass verifiers: team blocks read states and the CSR and fold
  # their verdicts into shared atomics.
  "$TSAN_DIR/tests/analysis_tests" --gtest_filter='Fused*'
  # SmmKernel on the team: sub-block evaluation with per-vertex cache
  # writes, and sync()'s reload and changed-slot diff in per-block lists.
  "$TSAN_DIR/tests/core_tests" --gtest_filter='*Parallel*'
  # selfstab sizes its passes itself: a 20000-node run (four workers where
  # four CPUs are free) against the same run held to one CPU.
  "$TSAN_DIR/tests/cli_tests" --gtest_filter='Execute.PooledRunMatchesSingleCpuRun'
  # SliceWidth.*, Geometry.SliceWidthFollowsTheBuild: the unit-disk bands
  # bound their slots' spans in the count pass and fill 2-byte slices on
  # the team.
  "$TSAN_DIR/tests/graph_tests" \
    --gtest_filter='SliceWidth.*:Geometry.SliceWidthFollowsTheBuild'
  # SyncRunnerQuietRounds.*: the dense quiet-round skip at threads = 3 —
  # skipped rounds clear every worker's move queue without a team barrier.
  # SyncRunner.AnnouncedEditsMatchDiff: announced slots marked into the
  # work-set bitset between team rounds, and liveEnabled's sweep on the
  # team with its early-exit flag.
  # ParallelRunner.TeamCommitMatchesInline: busy rounds commit on the
  # team, concurrent apply() calls on word-aligned blocks of SisKernel's
  # packed bits.
  # RandomConfiguration.TeamWidthMatchesInline: keyed random starts and
  # fraction corruption write states (and hit flags) from the team at
  # widths 2-4, and build the inverse labels there.
  "$TSAN_DIR/tests/engine_tests" \
    --gtest_filter='ParallelRunner.*:SyncRunnerQuietRounds.*:SyncRunner.AnnouncedEditsMatchDiff:RandomConfiguration.TeamWidthMatchesInline'
  # Campaigns at threads >= 2: fault injection between parallel rounds (the
  # fingerprint suite runs every protocol and event kind at threads = 3),
  # a campaign that throws out of a two-thread runner and hands the
  # rebuilt graph back to it, and masked stability read off a four-thread
  # runner (CampaignStability.*: liveEnabled sweeps on the team after
  # topology events). SimInjector.*: the simulator's controller draws a
  # fraction corruption on the team and builds each tick's unit-disk
  # snapshot there, between windows.
  "$TSAN_DIR/tests/chaos_tests" --gtest_filter=\
'EngineCampaign.SerialAndParallelExecutorsAgree:EngineCampaignFingerprint.*:EngineCampaign.RestoresCallerGraph*:CampaignStability.*:SimInjector.*'
  # '*Parallel*' selects ScheduleDifferentialParallel (every protocol in
  # core/, LeaderTree, SmmArbitrary and HsuHuangSynchronized included) and
  # KernelDifferentialParallel (the flat kernels reading the Graph's CSR
  # and per-worker move queues on the team).
  SELFSTAB_STRESS_ITERS="${SELFSTAB_TSAN_STRESS_ITERS:-3}" \
    "$TSAN_DIR/tests/stress_tests" --gtest_filter='*Parallel*'
  # Chaos soak under TSan: the fault-injection plumbing around the runner.
  SELFSTAB_STRESS_ITERS="${SELFSTAB_TSAN_STRESS_ITERS:-3}" \
    "$TSAN_DIR/tests/stress_tests" --gtest_filter='ChaosSoak.*'
  # The work-set executor at threads = 3: every team block marks its own
  # movers' neighbourhoods in one shared bitset (atomic_ref fetch_or), the
  # calling thread reads it after the barrier, and SisKernel builds its
  # slices on the same team.
  SELFSTAB_STRESS_ITERS="${SELFSTAB_TSAN_STRESS_ITERS:-3}" \
    "$TSAN_DIR/tests/stress_tests" --gtest_filter='ExactExecutor.*'
  # The simulator's window executor at 2-4 workers: per-node phases write
  # disjoint node ranges and capture payloads into their beacons' lane
  # entries while other workers read the window's arrivals and the next
  # window's geometry reads positions and the grid; the driving thread
  # emits after the barrier. FrozenRadioGraph.*: once hosts settle, the
  # driving thread builds the radio graph on the team between windows and
  # phase A reads its slices on every worker. Its CLI case runs on one
  # worker (300 hosts), so it has no race to find, and it takes over a
  # minute here; ASan below runs it. CurrentTopology.*: snapshots built on
  # the team (unit-disk bands) between windows of a 1- and 4-worker run.
  SELFSTAB_STRESS_ITERS="${SELFSTAB_TSAN_STRESS_ITERS:-3}" \
    "$TSAN_DIR/tests/stress_tests" \
    --gtest_filter='*SimWindowExecutor*:FrozenRadioGraph.*:CurrentTopology.*-FrozenRadioGraph.CrashStormCliRunMatchesScan'
  # Both slice widths at one and four workers: the flat kernels, the
  # work-set marks and a topology campaign each choose the width once per
  # call and read typed slices on the team.
  "$TSAN_DIR/tests/stress_tests" --gtest_filter='WidthDifferential.*'
} 2>&1 | tee "$ROOT/tsan_output.txt"

# AddressSanitizer pass over the beacon-simulator suites: the spatial-index
# rework moves neighbor caches and event queues onto flat vectors with
# in-place compaction and move-out pops, and each broadcast's arrival reads
# its payload and receiver list from a recycled arrival-lane slot, exactly
# the kind of code ASan catches misusing. The grid-vs-scan differential tests double
# as the workload.
ASAN_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_DIR" -G Ninja -S "$ROOT" -DSELFSTAB_SANITIZE=address
cmake --build "$ASAN_DIR" --target adhoc_tests chaos_tests stress_tests \
  engine_tests graph_tests core_tests analysis_tests cli_tests
{
  "$ASAN_DIR/tests/adhoc_tests"
  # unitDiskGraph's grid path indexes raw cell offsets over a cell-ordered
  # copy of the points and copies each list into the Graph's CSR at raw
  # offsets; Graph's own edits shift that CSR in place. isConnected's
  # union-find follows parent links by raw vertex numbers. forEachBlock
  # clamps its last block to the range end, and a dispatch hands index i
  # to worker i % size. A space-ordered build writes each slot's list
  # through a scratch buffer into the contiguous slices, and the labelled
  # writers index labels and their inverse. SliceWidth.*: narrow slices
  # widened in place by an edit, filtered rebuilds and cross-width
  # equality.
  "$ASAN_DIR/tests/graph_tests" --gtest_filter=\
'Geometry.*:Generators.*:Graph*:Connectivity.*:SpinTeam.*:LabelledIo.*:SliceWidth.*'
  # The one-pass verifiers follow pointers, including wild ones, into the
  # states.
  "$ASAN_DIR/tests/analysis_tests" --gtest_filter='Fused*'
  # SmmKernel's verified-pointer cache: one slot per vertex, resized and
  # reset by sync() across topology changes. SmmKeyPath*: the sub-block
  # arrays, partial last blocks, the compaction's writes past the movers
  # and the slot and rank lookups of the packed keys.
  "$ASAN_DIR/tests/core_tests" --gtest_filter='SmmPointerCache.*:SmmKeyPath*'
  # The runner and its kernel read the Graph's CSR through spans, and every
  # edit moves it: a span kept across an edit, a kernel swap (setKernel
  # frees the old kernel's caches) or a parallel round would be a
  # use-after-free here.
  # RandomConfiguration.*: draws on a labelled graph key each node by its
  # label and translate vertex fields through the inverse labels, inline
  # and on the team.
  # SyncRunner.AnnouncedEditsMatchDiff: announced slots index the bitset
  # and the kernel mirror by raw vertex numbers.
  "$ASAN_DIR/tests/engine_tests" \
    --gtest_filter='ParallelRunner.*:SetKernel.*:BuildView.*:ViewBuilder.*:RandomConfiguration.*:SyncRunner.AnnouncedEditsMatchDiff'
  # The CLI in both storage orders and both slice widths (the test-only
  # seam detail::execute): IDs, starts, plan nodes and every writer
  # translated through labels.
  "$ASAN_DIR/tests/cli_tests" \
    --gtest_filter='Execute.SpaceOrderIsInvisible:EveryProtocol/SpaceOrder.*:WriteAnnotatedDot.*'
  # Simulator fault injection: crashes and rejoins land while broadcasts are
  # in flight, so arrivals run against batch slots other broadcasts recycle.
  # The recovery monitor holds each window's topology by reference and
  # grows its BFS lazily, so every campaign doubles as a lifetime check.
  # The safety checks follow wild pointers and read only the moved list.
  "$ASAN_DIR/tests/chaos_tests" --gtest_filter=\
'SimInjector.*:EngineCampaign*:CampaignStability.*:RecoveryMonitor*:SmmSafetyCheck.*:SisSafetyCheck.*:SafetyCheck.*'
  SELFSTAB_STRESS_ITERS="${SELFSTAB_ASAN_STRESS_ITERS:-3}" \
    "$ASAN_DIR/tests/stress_tests" --gtest_filter='NetworkDifferential*'
  # Flat-kernel differential under ASan: the SoA mirrors index raw CSR
  # offsets and (word,mask) bitset slices — exactly where an off-by-one
  # would read out of bounds while still passing the bit-identity check.
  SELFSTAB_STRESS_ITERS="${SELFSTAB_ASAN_STRESS_ITERS:-3}" \
    "$ASAN_DIR/tests/stress_tests" --gtest_filter='KernelDifferential.*'
  # Chaos soak under ASan: crash/rejoin churn and partition masks rebuild
  # the Graph's CSR and neighbor caches in place — the fault campaigns
  # exercise exactly the compaction paths ASan is here to police.
  SELFSTAB_STRESS_ITERS="${SELFSTAB_ASAN_STRESS_ITERS:-3}" \
    "$ASAN_DIR/tests/stress_tests" --gtest_filter='ChaosSoak.*'
  # The work-set bitset is indexed by raw vertex numbers (v >> 6), the work
  # list is a span into a reused vector, and the campaign reads the commit
  # queues back as its moved list.
  SELFSTAB_STRESS_ITERS="${SELFSTAB_ASAN_STRESS_ITERS:-3}" \
    "$ASAN_DIR/tests/stress_tests" --gtest_filter='ExactExecutor.*'
  # Window executor: lane slots popped by a window are released only after
  # its per-node phase, and prepared mobility spans must cover every
  # position a window queries. FrozenRadioGraph.*: phase A reads the
  # frozen graph's CSR slices, and currentTopology() copies or filters
  # them (CurrentTopology.*, against an all-pairs scan).
  SELFSTAB_STRESS_ITERS="${SELFSTAB_ASAN_STRESS_ITERS:-3}" \
    "$ASAN_DIR/tests/stress_tests" \
    --gtest_filter='*SimWindowExecutor*:FrozenRadioGraph.*:CurrentTopology.*'
  # Both slice widths: typed slices read at raw offsets by the kernels, the
  # marks and the writers, and a campaign that filters a narrow base's
  # slices into each reshaped graph.
  "$ASAN_DIR/tests/stress_tests" --gtest_filter='WidthDifferential.*'
} 2>&1 | tee "$ROOT/asan_output.txt"

# Debug pass: the Graph's bulk factory checks its input (ascending,
# loop-free, in-range, symmetric slices; fromEdges' endpoints) with asserts,
# which every build above compiles out (RelWithDebInfo defines NDEBUG), so
# GraphDeathTest.* runs only here (LabelsMustBeAPermutation included). The
# rest of graph_tests sends every generator, reader and unit-disk build
# through those asserts too, the space-ordered builds of
# Geometry.SpaceOrderRelabelsPointOrder with their labels among them.
# engine_tests runs here for SyncRunner's round-entry assert that the
# kernel mirror equals the states: a test that edits states without
# invalidateSchedule() fails it. Not piped, so a failure stops the script.
DEBUG_DIR="${BUILD_DIR}-debug"
cmake -B "$DEBUG_DIR" -G Ninja -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug
cmake --build "$DEBUG_DIR" --target graph_tests engine_tests
"$DEBUG_DIR/tests/graph_tests"
"$DEBUG_DIR/tests/engine_tests"

# Benches append machine-readable results here (see
# bench/support/bench_json.hpp). The file name tracks the change number,
# read from the last CHANGES.md line that starts with "PR <n>" (one change
# may add several lines, some of them notes, and numbers can skip). The simulator perf gates live
# in scale_network, the chaos gates in soak_chaos, and the kernel gates in
# micro_kernels.
PR_NUM="$(sed -n 's/^PR \([0-9][0-9]*\).*/\1/p' "$ROOT/CHANGES.md" | tail -n 1)"
if [ -z "$PR_NUM" ]; then
  echo "run_all.sh: no CHANGES.md line starts with 'PR <n>'" >&2
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

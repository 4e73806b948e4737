// Flat-kernel microbench plus its acceptance gate.
//
// The flat kernels (src/core/*_kernel.hpp) exist to strip the generic
// path's per-node LocalView assembly, virtual onRound dispatch, and
// per-neighbor pointer chase out of the round loop. The gate in main()
// measures whole-round rule-evaluation throughput for SIS — the kernel the
// word-parallel bitset argument was made for — on both a power-law
// (preferential-attachment) and a geometric (unit-disk) topology, and
// exits non-zero unless the flat kernel clears 3x the generic path's
// evaluations/second on each. Results are appended to the
// SELFSTAB_BENCH_JSON stream (scripts/run_all.sh points it at
// BENCH_PR5.json). SELFSTAB_SMOKE=1 shrinks the gate for the sub-minute
// smoke pass (scripts/bench_smoke.sh).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "core/matching_state.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"
#include "graph/geometry.hpp"
#include "support/bench_json.hpp"

namespace selfstab {
namespace {

using core::BitState;
using core::PointerState;
using engine::Schedule;
using engine::SyncRunner;
using graph::Graph;
using graph::IdAssignment;

enum class Family { Geometric, PowerLaw };

Graph makeGraph(Family family, std::size_t n, graph::Rng& rng) {
  if (family == Family::PowerLaw) {
    // m=8 attachment edges: average degree ~16 with the heavy hub tail
    // that motivates degree-weighted partitioning.
    return graph::preferentialAttachment(n, 8, rng);
  }
  const double radius = 2.2 / std::sqrt(static_cast<double>(n));
  return graph::connectedRandomGeometric(n, radius, rng);
}

const char* toString(Family family) {
  return family == Family::PowerLaw ? "powerlaw" : "geometric";
}

/// One timed batch: `reps` steps of an already-converged runner on the
/// Sweep schedule, which reloads the mirror and evaluates all n vertices
/// every round instead of skipping the quiet ones, so this isolates pure
/// whole-round rule-evaluation throughput (evaluations/second).
template <typename State>
double timeBatch(SyncRunner<State>& runner, std::vector<State>& states,
                 int reps) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) {
    benchmark::DoNotOptimize(runner.step(states));
  }
  const auto stop = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(stop - start).count();
  return static_cast<double>(reps) * static_cast<double>(states.size()) /
         seconds;
}

struct GateRates {
  double generic = 0.0;
  double flat = 0.0;
  [[nodiscard]] double speedup() const { return flat / generic; }
};

/// Generic-vs-flat SIS throughput, measured as the best of three
/// *interleaved* batches: each batch times the generic and the flat runner
/// back to back and the gate compares per-batch ratios, so a drift in
/// machine speed (shared/throttled hosts) hits both paths of a batch
/// equally and cancels out of the speedup instead of flaking the gate.
GateRates measureSisGate(const Graph& g, const IdAssignment& ids, int reps) {
  const core::SisProtocol sis;
  SyncRunner<BitState> genericRunner(sis, g, ids, /*seed=*/7, Schedule::Sweep);
  SyncRunner<BitState> flatRunner(sis, g, ids, /*seed=*/7, Schedule::Sweep);
  auto kernel = core::makeFlatKernel<BitState>(sis, g, ids);
  if (kernel == nullptr) {
    std::fprintf(stderr, "FAIL: no flat kernel for SIS\n");
    std::exit(1);
  }
  flatRunner.setKernel(std::move(kernel));

  auto genericStates = genericRunner.initialStates();
  auto flatStates = flatRunner.initialStates();
  if (!genericRunner.run(genericStates, g.order() + 1).stabilized ||
      !flatRunner.run(flatStates, g.order() + 1).stabilized) {
    std::fprintf(stderr, "FAIL: SIS setup run did not stabilize\n");
    std::exit(1);
  }

  GateRates best;
  for (int batch = 0; batch < 3; ++batch) {
    GateRates sample;
    sample.generic = timeBatch(genericRunner, genericStates, reps);
    sample.flat = timeBatch(flatRunner, flatStates, reps);
    if (best.generic == 0.0 || sample.speedup() > best.speedup()) {
      best = sample;
    }
  }
  return best;
}

/// The acceptance gate: flat SIS evaluation must be >= 3x generic on both
/// graph families, measured before any benchmark timing.
void assertFlatKernelWins() {
  const bool smoke = std::getenv("SELFSTAB_SMOKE") != nullptr;
  const std::size_t n = smoke ? 20'000 : 200'000;
  const int reps = smoke ? 20 : 40;

  for (const Family family : {Family::PowerLaw, Family::Geometric}) {
    graph::Rng rng(42);
    const Graph g = makeGraph(family, n, rng);
    const IdAssignment ids = IdAssignment::identity(g.order());

    const GateRates rates = measureSisGate(g, ids, reps);
    const double generic = rates.generic;
    const double flat = rates.flat;
    const double speedup = rates.speedup();

    std::fprintf(stderr,
                 "kernel gate [%s]: n=%zu m=%zu | generic %.3g evals/s | "
                 "flat %.3g evals/s | speedup %.2fx\n",
                 toString(family), static_cast<std::size_t>(g.order()),
                 static_cast<std::size_t>(g.size()), generic, flat, speedup);

    const std::string row =
        std::string("micro_kernels/sis_gate_") + toString(family);
    bench::appendBenchJson(row.c_str(),
                           {{"n", static_cast<double>(g.order())},
                            {"m", static_cast<double>(g.size())},
                            {"generic_evals_per_sec", generic},
                            {"flat_evals_per_sec", flat},
                            {"speedup", speedup}});

    if (speedup < 3.0) {
      std::fprintf(stderr,
                   "FAIL: flat SIS kernel speedup %.2fx on %s graph, below "
                   "the 3x gate\n",
                   speedup, toString(family));
      std::exit(1);
    }
  }
}

/// Companion measurement (recorded, not gated): SMM flat-vs-generic on the
/// same converged-sweep methodology: every pointer set, so this times the
/// back-off pass alone (see recordSmmRandomStartRounds for the rest).
void recordSmmSpeedup() {
  const bool smoke = std::getenv("SELFSTAB_SMOKE") != nullptr;
  const std::size_t n = smoke ? 20'000 : 100'000;
  const int reps = smoke ? 10 : 20;
  for (const Family family : {Family::PowerLaw, Family::Geometric}) {
    graph::Rng rng(43);
    const Graph g = makeGraph(family, n, rng);
    const IdAssignment ids = IdAssignment::identity(g.order());
    const core::SmmProtocol smm = core::smmPaper();

    // Same interleaved-batch methodology as the SIS gate.
    SyncRunner<PointerState> genericRunner(smm, g, ids, /*seed=*/7,
                                           Schedule::Sweep);
    SyncRunner<PointerState> flatRunner(smm, g, ids, /*seed=*/7,
                                        Schedule::Sweep);
    flatRunner.setKernel(core::makeFlatKernel<PointerState>(smm, g, ids));
    auto genericStates = genericRunner.initialStates();
    auto flatStates = flatRunner.initialStates();
    if (!genericRunner.run(genericStates, 2 * g.order() + 1).stabilized ||
        !flatRunner.run(flatStates, 2 * g.order() + 1).stabilized) {
      std::fprintf(stderr, "FAIL: SMM setup run did not stabilize\n");
      std::exit(1);
    }
    GateRates best;
    for (int batch = 0; batch < 3; ++batch) {
      GateRates sample;
      sample.generic = timeBatch(genericRunner, genericStates, reps);
      sample.flat = timeBatch(flatRunner, flatStates, reps);
      if (best.generic == 0.0 || sample.speedup() > best.speedup()) {
        best = sample;
      }
    }

    std::fprintf(stderr,
                 "kernel info [%s]: smm generic %.3g evals/s | flat %.3g "
                 "evals/s | speedup %.2fx\n",
                 toString(family), best.generic, best.flat, best.speedup());
    const std::string row =
        std::string("micro_kernels/smm_info_") + toString(family);
    bench::appendBenchJson(row.c_str(),
                           {{"n", static_cast<double>(g.order())},
                            {"generic_evals_per_sec", best.generic},
                            {"flat_evals_per_sec", best.flat},
                            {"speedup", best.speedup()}});
  }
}

/// Mean seconds of one step of `runner` from `from`, over `reps` steps
/// that each start from a fresh copy (copies untimed).
double timeRoundFrom(SyncRunner<PointerState>& runner,
                     const std::vector<PointerState>& from, int reps) {
  double seconds = 0.0;
  for (int i = 0; i < reps; ++i) {
    auto states = from;
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(runner.step(states));
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  }
  return seconds / reps;
}

/// Companion (recorded, not gated): the two SMM rounds a random start
/// alternates between, at one thread, flat against generic. The converged
/// sweep above has every pointer set; here the graph is selfstab's 10^6
/// unit-disk density in space order, IDs gathered through the labels, and
/// the start random. Its first round backs nearly every pointer off, so
/// the second is a proposal round (most nodes null, each keying its whole
/// slice) and the third a back-off round (almost every node pointing).
/// Each is timed from the state before it, on the Sweep schedule.
void recordSmmRandomStartRounds() {
  const bool smoke = std::getenv("SELFSTAB_SMOKE") != nullptr;
  const std::size_t n = smoke ? 20'000 : 1'000'000;
  const int reps = smoke ? 5 : 2;
  graph::Rng rng(44);
  const double radius = 0.003 * std::sqrt(1e6 / static_cast<double>(n));
  const Graph g = graph::connectedRandomGeometric(n, radius, rng, nullptr, 64,
                                                  graph::VertexOrder::Space);
  IdAssignment::Ids labels(g.order());
  for (graph::Vertex v = 0; v < g.order(); ++v) labels[v] = g.labelOf(v);
  const IdAssignment ids(std::move(labels));
  const core::SmmProtocol smm = core::smmPaper();
  SyncRunner<PointerState> genericRunner(smm, g, ids, /*seed=*/7,
                                         Schedule::Sweep);
  SyncRunner<PointerState> flatRunner(smm, g, ids, /*seed=*/7,
                                      Schedule::Sweep);
  flatRunner.setKernel(core::makeFlatKernel<PointerState>(smm, g, ids));

  std::vector<std::vector<PointerState>> before(3);
  before[0] = engine::randomConfiguration<PointerState>(
      g, rng, core::randomPointerState);
  for (std::size_t r = 1; r < before.size(); ++r) {
    before[r] = before[r - 1];
    auto generic = before[r - 1];
    flatRunner.step(before[r]);
    genericRunner.step(generic);
    if (generic != before[r]) {
      std::fprintf(stderr, "FAIL: flat and generic SMM rounds differ\n");
      std::exit(1);
    }
  }
  const char* const kRounds[] = {"proposal", "back-off"};
  for (std::size_t r = 1; r < before.size(); ++r) {
    std::size_t nulls = 0;
    for (const PointerState& s : before[r]) nulls += s.isNull() ? 1 : 0;
    // Interleaved batches, best ratio, as in the gate.
    GateRates best;
    double flatSeconds = 0.0;
    double genericSeconds = 0.0;
    for (int batch = 0; batch < 3; ++batch) {
      const double gs = timeRoundFrom(genericRunner, before[r], reps);
      const double fs = timeRoundFrom(flatRunner, before[r], reps);
      const GateRates sample{static_cast<double>(n) / gs,
                             static_cast<double>(n) / fs};
      if (best.generic == 0.0 || sample.speedup() > best.speedup()) {
        best = sample;
        genericSeconds = gs;
        flatSeconds = fs;
      }
    }
    const char* round = kRounds[r - 1];
    std::fprintf(stderr,
                 "kernel info [smm %s round]: n=%zu null=%zu | generic "
                 "%.1f ms | flat %.1f ms | speedup %.2fx\n",
                 round, static_cast<std::size_t>(g.order()), nulls,
                 genericSeconds * 1e3, flatSeconds * 1e3, best.speedup());
    const std::string row = std::string("micro_kernels/smm_") + round +
                            "_round";
    bench::appendBenchJson(row.c_str(),
                           {{"n", static_cast<double>(g.order())},
                            {"null_nodes", static_cast<double>(nulls)},
                            {"generic_ms", genericSeconds * 1e3},
                            {"flat_ms", flatSeconds * 1e3},
                            {"generic_evals_per_sec", best.generic},
                            {"flat_evals_per_sec", best.flat},
                            {"speedup", best.speedup()}});
  }
}

// ---- Timed benchmarks -----------------------------------------------------

/// Dense converged sweep at threads = 1: the purest view of evaluation
/// throughput. Covers SMM and SIS, both graph families, flat vs generic.
template <typename State, typename Protocol>
void denseStepBench(benchmark::State& state, const Protocol& protocol,
                    Family family, bool flat) {
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::Rng rng(n);
  const Graph g = makeGraph(family, n, rng);
  const IdAssignment ids = IdAssignment::identity(g.order());
  SyncRunner<State> runner(protocol, g, ids, /*seed=*/7, Schedule::Sweep);
  if (flat) runner.setKernel(core::makeFlatKernel<State>(protocol, g, ids));
  auto states = runner.initialStates();
  if (!runner.run(states, 2 * g.order() + 1).stabilized) {
    state.SkipWithError("setup failed to stabilize");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.step(states));  // a full sweep
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

/// Fault-burst recovery on the list-only schedule at threads = 1: exercises
/// the kernels' evaluateList + apply path instead of the range sweep.
template <typename State, typename Protocol, typename Sampler>
void activeRecoveryBench(benchmark::State& state, const Protocol& protocol,
                         Family family, bool flat, Sampler sampler) {
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::Rng rng(n);
  const Graph g = makeGraph(family, n, rng);
  const IdAssignment ids = IdAssignment::identity(g.order());
  SyncRunner<State> runner(protocol, g, ids, /*seed=*/7, Schedule::Active);
  if (flat) runner.setKernel(core::makeFlatKernel<State>(protocol, g, ids));
  auto converged = runner.initialStates();
  const std::size_t bound = 2 * g.order() + 1;
  if (!runner.run(converged, bound).stabilized) {
    state.SkipWithError("setup failed to stabilize");
    return;
  }
  std::uint64_t burst = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto states = converged;
    graph::Rng faultRng(1000 + burst++);
    engine::corruptAndReschedule(runner, states, g, faultRng, 0.005, sampler);
    state.ResumeTiming();
    benchmark::DoNotOptimize(runner.run(states, bound).rounds);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

/// Dense converged sweep on the worker pool: evaluation throughput under
/// the degree-weighted partition, flat vs generic.
template <typename State, typename Protocol>
void parallelDenseStepBench(benchmark::State& state, const Protocol& protocol,
                            Family family, bool flat) {
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::Rng rng(n);
  const Graph g = makeGraph(family, n, rng);
  const IdAssignment ids = IdAssignment::identity(g.order());
  engine::SyncRunner<State> runner(protocol, g, ids, /*seed=*/7,
                                   Schedule::Sweep, /*threads=*/4);
  if (flat) runner.setKernel(core::makeFlatKernel<State>(protocol, g, ids));
  std::vector<State> states;
  states.reserve(g.order());
  for (graph::Vertex v = 0; v < g.order(); ++v) {
    states.push_back(protocol.initialState(v));
  }
  if (!runner.run(states, 2 * g.order() + 1).stabilized) {
    state.SkipWithError("setup failed to stabilize");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.step(states));  // a full sweep
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

const core::SisProtocol kSis;
const core::SmmProtocol kSmm = core::smmPaper();

void BM_SisDenseGenericPower(benchmark::State& s) {
  denseStepBench<BitState>(s, kSis, Family::PowerLaw, false);
}
void BM_SisDenseFlatPower(benchmark::State& s) {
  denseStepBench<BitState>(s, kSis, Family::PowerLaw, true);
}
void BM_SisDenseGenericGeo(benchmark::State& s) {
  denseStepBench<BitState>(s, kSis, Family::Geometric, false);
}
void BM_SisDenseFlatGeo(benchmark::State& s) {
  denseStepBench<BitState>(s, kSis, Family::Geometric, true);
}
BENCHMARK(BM_SisDenseGenericPower)->Arg(16384);
BENCHMARK(BM_SisDenseFlatPower)->Arg(16384);
BENCHMARK(BM_SisDenseGenericGeo)->Arg(16384);
BENCHMARK(BM_SisDenseFlatGeo)->Arg(16384);

void BM_SmmDenseGenericPower(benchmark::State& s) {
  denseStepBench<PointerState>(s, kSmm, Family::PowerLaw, false);
}
void BM_SmmDenseFlatPower(benchmark::State& s) {
  denseStepBench<PointerState>(s, kSmm, Family::PowerLaw, true);
}
void BM_SmmDenseGenericGeo(benchmark::State& s) {
  denseStepBench<PointerState>(s, kSmm, Family::Geometric, false);
}
void BM_SmmDenseFlatGeo(benchmark::State& s) {
  denseStepBench<PointerState>(s, kSmm, Family::Geometric, true);
}
BENCHMARK(BM_SmmDenseGenericPower)->Arg(16384);
BENCHMARK(BM_SmmDenseFlatPower)->Arg(16384);
BENCHMARK(BM_SmmDenseGenericGeo)->Arg(16384);
BENCHMARK(BM_SmmDenseFlatGeo)->Arg(16384);

void BM_SmmActiveRecoveryGeneric(benchmark::State& s) {
  activeRecoveryBench<PointerState>(s, kSmm, Family::Geometric, false,
                                    core::wildPointerState);
}
void BM_SmmActiveRecoveryFlat(benchmark::State& s) {
  activeRecoveryBench<PointerState>(s, kSmm, Family::Geometric, true,
                                    core::wildPointerState);
}
BENCHMARK(BM_SmmActiveRecoveryGeneric)->Arg(16384);
BENCHMARK(BM_SmmActiveRecoveryFlat)->Arg(16384);

void BM_SisActiveRecoveryGeneric(benchmark::State& s) {
  activeRecoveryBench<BitState>(s, kSis, Family::PowerLaw, false,
                                core::randomBitState);
}
void BM_SisActiveRecoveryFlat(benchmark::State& s) {
  activeRecoveryBench<BitState>(s, kSis, Family::PowerLaw, true,
                                core::randomBitState);
}
BENCHMARK(BM_SisActiveRecoveryGeneric)->Arg(16384);
BENCHMARK(BM_SisActiveRecoveryFlat)->Arg(16384);

void BM_SisParallelDenseGeneric(benchmark::State& s) {
  parallelDenseStepBench<BitState>(s, kSis, Family::PowerLaw, false);
}
void BM_SisParallelDenseFlat(benchmark::State& s) {
  parallelDenseStepBench<BitState>(s, kSis, Family::PowerLaw, true);
}
void BM_SmmParallelDenseGeneric(benchmark::State& s) {
  parallelDenseStepBench<PointerState>(s, kSmm, Family::PowerLaw, false);
}
void BM_SmmParallelDenseFlat(benchmark::State& s) {
  parallelDenseStepBench<PointerState>(s, kSmm, Family::PowerLaw, true);
}
BENCHMARK(BM_SisParallelDenseGeneric)->Arg(65536);
BENCHMARK(BM_SisParallelDenseFlat)->Arg(65536);
BENCHMARK(BM_SmmParallelDenseGeneric)->Arg(65536);
BENCHMARK(BM_SmmParallelDenseFlat)->Arg(65536);

}  // namespace
}  // namespace selfstab

int main(int argc, char** argv) {
  // Hard gate before timing anything: the flat SIS kernel must deliver the
  // promised 3x evaluation-throughput win on both graph families.
  selfstab::assertFlatKernelWins();
  selfstab::recordSmmSpeedup();
  selfstab::recordSmmRandomStartRounds();
  // Gate-only mode for scripts/bench_smoke.sh: skip the timed benchmarks.
  if (std::getenv("SELFSTAB_GATE_ONLY") != nullptr) return 0;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

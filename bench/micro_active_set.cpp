// Active-set scheduling microbench plus its acceptance gate.
//
// The scenario the schedule exists for: a large, near-converged network
// absorbs a small fault burst. Dense rounds still evaluate every node;
// active rounds evaluate only the dirty frontier around the burst. The
// gate in main() runs exactly that scenario on a ~100k-node unit-disk
// graph and exits non-zero unless the active schedule (a) performs at
// most one third of the dense schedule's rule evaluations and (b) is
// faster in wall-clock time — both measured before any benchmark timing.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"
#include "telemetry/telemetry.hpp"

namespace selfstab {
namespace {

using core::PointerState;
using engine::Schedule;
using engine::SyncRunner;
using graph::Graph;
using graph::IdAssignment;

// A connected unit-disk graph at roughly constant average degree: the
// ad hoc topology of the paper, at a size where O(n)-per-round matters.
Graph bigGeometric(std::size_t n, graph::Rng& rng) {
  const double radius = 2.2 / std::sqrt(static_cast<double>(n));
  return graph::connectedRandomGeometric(n, radius, rng);
}

struct RecoveryStats {
  std::uint64_t evaluations = 0;
  double seconds = 0.0;
  std::size_t rounds = 0;
};

// Stabilize from scratch, corrupt `faultFraction` of the nodes, then time
// the recovery run under `schedule`, counting rule evaluations via the
// active_nodes_total counter.
RecoveryStats measureRecovery(const Graph& g, const IdAssignment& ids,
                              Schedule schedule, double faultFraction) {
  const core::SmmProtocol smm = core::smmPaper();
  SyncRunner<PointerState> runner(smm, g, ids, /*seed=*/7, schedule);
  auto states = runner.initialStates();
  const std::size_t bound = 2 * g.order() + 1;
  if (!runner.run(states, bound).stabilized) {
    std::fprintf(stderr, "setup run failed to stabilize\n");
    std::exit(1);
  }

  graph::Rng faultRng(99);
  engine::corruptAndReschedule(runner, states, g, faultRng, faultFraction,
                               core::wildPointerState);

  telemetry::Registry registry;
  runner.attachTelemetry(&registry);
  const auto start = std::chrono::steady_clock::now();
  const engine::RunResult recovery = runner.run(states, bound);
  const auto stop = std::chrono::steady_clock::now();
  if (!recovery.stabilized) {
    std::fprintf(stderr, "recovery run failed to stabilize\n");
    std::exit(1);
  }

  RecoveryStats stats;
  stats.evaluations =
      registry.counterValue(telemetry::names::kActiveNodes);
  stats.seconds = std::chrono::duration<double>(stop - start).count();
  stats.rounds = recovery.rounds;
  return stats;
}

// The acceptance gate: >= 3x fewer evaluations AND a wall-clock win on a
// near-converged ~100k-node geometric graph recovering from a 0.5% burst.
void assertActiveSetWins() {
  graph::Rng rng(42);
  const Graph g = bigGeometric(100'000, rng);
  const IdAssignment ids = IdAssignment::identity(g.order());

  const RecoveryStats dense =
      measureRecovery(g, ids, Schedule::Dense, 0.005);
  const RecoveryStats active =
      measureRecovery(g, ids, Schedule::Active, 0.005);

  std::fprintf(stderr,
               "active-set gate: n=%zu m=%zu | dense %llu evals in %.3fs "
               "(%zu rounds) | active %llu evals in %.3fs (%zu rounds)\n",
               static_cast<std::size_t>(g.order()),
               static_cast<std::size_t>(g.size()),
               static_cast<unsigned long long>(dense.evaluations),
               dense.seconds, dense.rounds,
               static_cast<unsigned long long>(active.evaluations),
               active.seconds, active.rounds);

  if (active.evaluations * 3 > dense.evaluations) {
    std::fprintf(stderr,
                 "FAIL: active schedule ran %llu evaluations, more than a "
                 "third of dense's %llu\n",
                 static_cast<unsigned long long>(active.evaluations),
                 static_cast<unsigned long long>(dense.evaluations));
    std::exit(1);
  }
  if (active.seconds >= dense.seconds) {
    std::fprintf(stderr,
                 "FAIL: active schedule (%.3fs) not faster than dense "
                 "(%.3fs)\n",
                 active.seconds, dense.seconds);
    std::exit(1);
  }
}

// Timed benchmark: one recovery run (fault burst through re-stabilization)
// at smaller sizes, dense vs active.
void recoveryBench(benchmark::State& state, Schedule schedule) {
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::Rng rng(n);
  const Graph g = bigGeometric(n, rng);
  const IdAssignment ids = IdAssignment::identity(g.order());
  const core::SmmProtocol smm = core::smmPaper();
  const std::size_t bound = 2 * g.order() + 1;

  SyncRunner<PointerState> runner(smm, g, ids, /*seed=*/7, schedule);
  auto converged = runner.initialStates();
  if (!runner.run(converged, bound).stabilized) {
    state.SkipWithError("setup failed to stabilize");
    return;
  }

  std::uint64_t burst = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto states = converged;
    graph::Rng faultRng(1000 + burst++);
    engine::corruptAndReschedule(runner, states, g, faultRng, 0.005,
                                 core::wildPointerState);
    state.ResumeTiming();
    benchmark::DoNotOptimize(runner.run(states, bound).rounds);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_RecoveryDense(benchmark::State& state) {
  recoveryBench(state, Schedule::Dense);
}
void BM_RecoveryActive(benchmark::State& state) {
  recoveryBench(state, Schedule::Active);
}
BENCHMARK(BM_RecoveryDense)->Arg(4096)->Arg(16384);
BENCHMARK(BM_RecoveryActive)->Arg(4096)->Arg(16384);

// A single step on an already-converged graph: the per-round floor of each
// schedule. Dense pays its snapshot copy-and-compare and skips the quiet
// round's evaluation; active pays a reseed-free no-op round.
void quiescentStepBench(benchmark::State& state, Schedule schedule) {
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::Rng rng(n);
  const Graph g = bigGeometric(n, rng);
  const IdAssignment ids = IdAssignment::identity(g.order());
  const core::SisProtocol sis;
  SyncRunner<core::BitState> runner(sis, g, ids, /*seed=*/7, schedule);
  auto states = runner.initialStates();
  if (!runner.run(states, g.order()).stabilized) {
    state.SkipWithError("setup failed to stabilize");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.step(states));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_QuiescentStepDense(benchmark::State& state) {
  quiescentStepBench(state, Schedule::Dense);
}
void BM_QuiescentStepActive(benchmark::State& state) {
  quiescentStepBench(state, Schedule::Active);
}
BENCHMARK(BM_QuiescentStepDense)->Arg(4096)->Arg(65536);
BENCHMARK(BM_QuiescentStepActive)->Arg(4096)->Arg(65536);

}  // namespace
}  // namespace selfstab

int main(int argc, char** argv) {
  // Hard gate before timing anything: the active schedule must deliver the
  // promised evaluation reduction and a real wall-clock win at scale.
  selfstab::assertActiveSetWins();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Work-set executor microbench plus its acceptance gate.
//
// SyncRunner evaluates only the closed neighborhoods of the last round's
// movers (and of announced edits), as a list while the set is small and as
// a full sweep once it is large. Two measurements live here:
//
//  * The gate, run before any timing: a ~100k-node unit-disk graph,
//    converged, absorbs a 0.5% fault burst. The adaptive executor (the
//    default Dense schedule) must perform at most one third of the rule
//    evaluations of the textbook sweep (the Sweep oracle, which evaluates
//    every node every round) and finish the recovery faster.
//  * The switch sweep: for each kernel, the cost of evaluating a work set
//    of k random vertices as a list (bitset scan included) against one sweep
//    over all n, for a range of k/n. The executor's switch point,
//    SyncRunner::kSweepShare, is read off this table
//    (docs/PERFORMANCE.md, "Round executor"), as is the team dispatch cost
//    behind its inline threshold for short lists.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/coloring.hpp"
#include "core/kernels.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"
#include "parallel/spin_team.hpp"
#include "support/bench_json.hpp"
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

// The acceptance gate: >= 3x fewer evaluations than the full sweep AND a
// wall-clock win on a near-converged ~100k-node geometric graph recovering
// from a 0.5% burst.
void assertWorkSetWins() {
  graph::Rng rng(42);
  const Graph g = bigGeometric(100'000, rng);
  const IdAssignment ids = IdAssignment::identity(g.order());

  const RecoveryStats sweep =
      measureRecovery(g, ids, Schedule::Sweep, 0.005);
  const RecoveryStats adaptive =
      measureRecovery(g, ids, Schedule::Dense, 0.005);

  std::fprintf(stderr,
               "work-set gate: n=%zu m=%zu | sweep %llu evals in %.3fs "
               "(%zu rounds) | adaptive %llu evals in %.3fs (%zu rounds)\n",
               static_cast<std::size_t>(g.order()),
               static_cast<std::size_t>(g.size()),
               static_cast<unsigned long long>(sweep.evaluations),
               sweep.seconds, sweep.rounds,
               static_cast<unsigned long long>(adaptive.evaluations),
               adaptive.seconds, adaptive.rounds);

  if (adaptive.evaluations * 3 > sweep.evaluations) {
    std::fprintf(stderr,
                 "FAIL: adaptive executor ran %llu evaluations, more than a "
                 "third of the sweep's %llu\n",
                 static_cast<unsigned long long>(adaptive.evaluations),
                 static_cast<unsigned long long>(sweep.evaluations));
    std::exit(1);
  }
  if (adaptive.seconds >= sweep.seconds) {
    std::fprintf(stderr,
                 "FAIL: adaptive executor (%.3fs) not faster than the sweep "
                 "(%.3fs)\n",
                 adaptive.seconds, sweep.seconds);
    std::exit(1);
  }
}

// Best of `reps` wall-clock timings of fn().
template <typename Fn>
double bestSeconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(stop - start).count());
  }
  return best;
}

// One kernel's row set of the switch sweep: list cost over sweep cost for
// work sets of n / share random vertices. The list cost includes the
// bitset scan the executor pays to extract it.
template <typename State>
void sweepKernel(const char* name, const engine::Protocol<State>& protocol,
                 std::unique_ptr<engine::FlatKernel<State>> kernel,
                 const Graph& g, const IdAssignment& ids) {
  SyncRunner<State> runner(protocol, g, ids, /*seed=*/7);
  auto states = runner.initialStates();
  if (!runner.run(states, 2 * g.order() + 1).stabilized) {
    std::fprintf(stderr, "switch sweep: %s did not stabilize\n", name);
    std::exit(1);
  }
  if (kernel == nullptr) {
    kernel = std::make_unique<engine::GenericKernel<State>>(protocol, g, ids);
  }
  kernel->sync(states, nullptr, 1);
  const std::size_t n = g.order();
  engine::MoveList<State> out;
  const double sweep = bestSeconds(5, [&] {
    out.clear();
    kernel->evaluateRange(0, static_cast<graph::Vertex>(n), 1, out);
  });
  for (const std::size_t share : {64, 32, 16, 8, 4, 2}) {
    graph::Rng rng(share);
    std::vector<std::uint64_t> marks((n + 63) / 64, 0);
    for (std::size_t i = 0; i < n / share; ++i) {
      const std::size_t v = rng.below(n);
      marks[v >> 6] |= std::uint64_t{1} << (v & 63);
    }
    std::vector<graph::Vertex> work;
    const double list = bestSeconds(5, [&] {
      work.clear();
      for (std::size_t w = 0; w < marks.size(); ++w) {
        for (std::uint64_t bits = marks[w]; bits != 0; bits &= bits - 1) {
          work.push_back(static_cast<graph::Vertex>(
              64 * w + static_cast<std::size_t>(std::countr_zero(bits))));
        }
      }
      out.clear();
      kernel->evaluateList(work, 1, out);
    });
    std::fprintf(stderr,
                 "switch sweep [%s]: k = n/%-2zu list %.3f ms, sweep %.3f ms, "
                 "list/sweep %.2f\n",
                 name, share, list * 1e3, sweep * 1e3, list / sweep);
    const std::string row = std::string("micro_active_set/switch_") + name +
                            "_n_over_" + std::to_string(share);
    bench::appendBenchJson(row.c_str(),
                           {{"n", static_cast<double>(n)},
                            {"listed", static_cast<double>(work.size())},
                            {"list_seconds", list},
                            {"sweep_seconds", sweep}});
  }
}

void recordSwitchSweep() {
  const bool smoke = std::getenv("SELFSTAB_SMOKE") != nullptr;
  graph::Rng rng(43);
  const Graph g = bigGeometric(smoke ? 20'000 : 100'000, rng);
  const IdAssignment ids = IdAssignment::randomPermutation(g.order(), rng);
  const core::SisProtocol sis;
  const core::SmmProtocol smm = core::smmPaper();
  const core::ColoringProtocol coloring;
  sweepKernel<core::BitState>("sis_flat", sis,
                              core::makeFlatKernel<core::BitState>(sis, g, ids),
                              g, ids);
  sweepKernel<PointerState>("smm_flat", smm,
                            core::makeFlatKernel<PointerState>(smm, g, ids),
                            g, ids);
  sweepKernel<core::ColorState>("coloring_generic", coloring, nullptr, g, ids);

  // What a team round trip costs with nothing to do: the floor under which
  // a short list is cheaper to evaluate inline. Back to back, the helpers
  // are still spinning; after rest() they are parked and must be woken, as
  // for the first busy round after a quiet spell.
  parallel::SpinTeam team(4);
  std::atomic<std::size_t> sink{0};
  const auto dispatch = [&] {
    team.run(4, [&](std::size_t t) { sink.fetch_add(t); });
  };
  const double spinning = bestSeconds(200, dispatch);
  double parked = 1e300;
  for (int i = 0; i < 200; ++i) {
    team.rest();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    parked = std::min(parked, bestSeconds(1, dispatch));
  }
  std::fprintf(stderr,
               "switch sweep: empty 4-worker team dispatch %.1f us spinning, "
               "%.1f us parked\n",
               spinning * 1e6, parked * 1e6);
  bench::appendBenchJson("micro_active_set/team_dispatch",
                         {{"workers", 4.0},
                          {"spinning_seconds", spinning},
                          {"parked_seconds", parked}});
}

// Timed benchmark: one recovery run (fault burst through re-stabilization)
// at smaller sizes, sweep oracle vs adaptive executor.
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

void BM_RecoverySweep(benchmark::State& state) {
  recoveryBench(state, Schedule::Sweep);
}
void BM_RecoveryAdaptive(benchmark::State& state) {
  recoveryBench(state, Schedule::Dense);
}
BENCHMARK(BM_RecoverySweep)->Arg(4096)->Arg(16384);
BENCHMARK(BM_RecoveryAdaptive)->Arg(4096)->Arg(16384);

// A single step on an already-converged graph: the per-round floor. The
// sweep oracle reloads and evaluates everything; the adaptive executor's
// work set is empty, so its round is skipped outright.
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

void BM_QuiescentStepSweep(benchmark::State& state) {
  quiescentStepBench(state, Schedule::Sweep);
}
void BM_QuiescentStepAdaptive(benchmark::State& state) {
  quiescentStepBench(state, Schedule::Dense);
}
BENCHMARK(BM_QuiescentStepSweep)->Arg(4096)->Arg(65536);
BENCHMARK(BM_QuiescentStepAdaptive)->Arg(4096)->Arg(65536);

}  // namespace
}  // namespace selfstab

int main(int argc, char** argv) {
  // Hard gate before timing anything: the work set must deliver the
  // promised evaluation reduction and a real wall-clock win at scale.
  selfstab::assertWorkSetWins();
  selfstab::recordSwitchSweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

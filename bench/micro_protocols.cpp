// Microbenchmarks: per-round and full-run protocol costs on the abstract
// synchronous engine. These size the engine itself (rule evaluation is
// O(deg) per node per round), independent of the paper's round-complexity
// results.
#include <benchmark/benchmark.h>

#include "analysis/node_types.hpp"
#include "core/coloring.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"

namespace selfstab {
namespace {

using core::BitState;
using core::ColorState;
using core::PointerState;
using engine::SyncRunner;
using graph::Graph;
using graph::IdAssignment;

Graph benchGraph(std::size_t n) {
  graph::Rng rng(n);
  return graph::connectedErdosRenyi(n, 6.0 / static_cast<double>(n), rng);
}

void BM_SmmSingleRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = benchGraph(n);
  const IdAssignment ids = IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();
  graph::Rng rng(1);

  for (auto _ : state) {
    state.PauseTiming();
    auto states = engine::randomConfiguration<PointerState>(
        g, rng, core::randomPointerState);
    SyncRunner<PointerState> runner(smm, g, ids);
    state.ResumeTiming();
    benchmark::DoNotOptimize(runner.step(states));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SmmSingleRound)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_SmmFullStabilization(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = benchGraph(n);
  const IdAssignment ids = IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();
  graph::Rng rng(2);

  for (auto _ : state) {
    state.PauseTiming();
    auto states = engine::randomConfiguration<PointerState>(
        g, rng, core::randomPointerState);
    SyncRunner<PointerState> runner(smm, g, ids);
    state.ResumeTiming();
    const auto result = runner.run(states, n + 2);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SmmFullStabilization)->Arg(64)->Arg(256)->Arg(1024);

void BM_SisSingleRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = benchGraph(n);
  const IdAssignment ids = IdAssignment::identity(n);
  const core::SisProtocol sis;
  graph::Rng rng(3);

  for (auto _ : state) {
    state.PauseTiming();
    auto states =
        engine::randomConfiguration<BitState>(g, rng, core::randomBitState);
    SyncRunner<BitState> runner(sis, g, ids);
    state.ResumeTiming();
    benchmark::DoNotOptimize(runner.step(states));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SisSingleRound)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_SisFullStabilization(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = benchGraph(n);
  const IdAssignment ids = IdAssignment::identity(n);
  const core::SisProtocol sis;
  graph::Rng rng(4);

  for (auto _ : state) {
    state.PauseTiming();
    auto states =
        engine::randomConfiguration<BitState>(g, rng, core::randomBitState);
    SyncRunner<BitState> runner(sis, g, ids);
    state.ResumeTiming();
    const auto result = runner.run(states, n + 1);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SisFullStabilization)->Arg(64)->Arg(256)->Arg(1024);

void BM_ColoringFullStabilization(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = benchGraph(n);
  const IdAssignment ids = IdAssignment::identity(n);
  const core::ColoringProtocol coloring;
  graph::Rng rng(5);

  for (auto _ : state) {
    state.PauseTiming();
    auto states = engine::randomConfiguration<ColorState>(
        g, rng, core::randomColorState);
    SyncRunner<ColorState> runner(coloring, g, ids);
    state.ResumeTiming();
    const auto result = runner.run(states, n + 1);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ColoringFullStabilization)->Arg(64)->Arg(256)->Arg(1024);

void BM_ParallelSmmRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const Graph g = benchGraph(n);
  const IdAssignment ids = IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();
  graph::Rng rng(8);

  engine::SyncRunner<PointerState> runner(smm, g, ids, 0,
                                          engine::Schedule::Dense, threads);
  for (auto _ : state) {
    state.PauseTiming();
    auto states = engine::randomConfiguration<PointerState>(
        g, rng, core::randomPointerState);
    state.ResumeTiming();
    benchmark::DoNotOptimize(runner.step(states));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
// Wall-clock timing: the work happens on the pool threads, so CPU time of
// the driving thread would be meaningless.
BENCHMARK(BM_ParallelSmmRound)
    ->UseRealTime()
    ->Args({4096, 1})
    ->Args({4096, 2})
    ->Args({4096, 4})
    ->Args({16384, 1})
    ->Args({16384, 4});

void BM_ClassifyNodes(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = benchGraph(n);
  const IdAssignment ids = IdAssignment::identity(n);
  graph::Rng rng(6);
  const auto states = engine::randomConfiguration<PointerState>(
      g, rng, core::randomPointerState);

  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::classifyNodes(g, states));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ClassifyNodes)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace selfstab

BENCHMARK_MAIN();

// Microbenchmarks for the beacon-model simulator: events/second and cost of
// simulated protocol time, plus a machine-readable grid-vs-scan comparison
// appended to $SELFSTAB_BENCH_JSON and the window executor's grain table
// (docs/PERFORMANCE.md) before the google-benchmark run.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "adhoc/mobility.hpp"
#include "adhoc/network.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "graph/generators.hpp"
#include "support/bench_json.hpp"

namespace selfstab::adhoc {
namespace {

using core::BitState;
using core::PointerState;
using graph::IdAssignment;

std::vector<graph::Point> points(std::size_t n, std::uint64_t seed) {
  graph::Rng rng(seed);
  std::vector<graph::Point> pts;
  graph::connectedRandomGeometric(n, 0.3, rng, &pts);
  return pts;
}

void BM_BeaconSecondsSimulated(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::SisProtocol sis;
  const IdAssignment ids = IdAssignment::identity(n);
  for (auto _ : state) {
    state.PauseTiming();
    NetworkConfig config;
    config.seed = 9;
    StaticPlacement mobility(points(n, 5));
    NetworkSimulator<BitState> sim(sis, ids, mobility, config);
    state.ResumeTiming();
    sim.run(10 * kSecond);
    benchmark::DoNotOptimize(sim.stats().beaconsSent);
  }
}
BENCHMARK(BM_BeaconSecondsSimulated)->Arg(16)->Arg(64)->Arg(128);

void BM_MobileSimulation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::SmmProtocol smm = core::smmPaper();
  const IdAssignment ids = IdAssignment::identity(n);
  for (auto _ : state) {
    state.PauseTiming();
    NetworkConfig config;
    config.seed = 11;
    config.radius = 0.4;
    RandomWaypoint::Config wp;
    wp.speedMin = 0.02;
    wp.speedMax = 0.05;
    graph::Rng rng(7);
    RandomWaypoint mobility(graph::randomPoints(n, rng), wp, 3);
    NetworkSimulator<PointerState> sim(smm, ids, mobility, config);
    state.ResumeTiming();
    sim.run(10 * kSecond);
    benchmark::DoNotOptimize(sim.stats().moves);
  }
}
BENCHMARK(BM_MobileSimulation)->Arg(16)->Arg(64);

// One measured grid-vs-scan data point at a size where the gap is already
// visible (n = 4096, two beacon intervals, collisions on). Also re-checks
// that both modes end bit-identical, so a perf regression hunt can trust
// the comparison.
void emitGridVsScan() {
  constexpr std::size_t kNodes = 4096;
  const core::SisProtocol sis;
  const IdAssignment ids = IdAssignment::identity(kNodes);

  const auto runMode = [&](IndexMode index, QueueMode queue, double* seconds) {
    NetworkConfig config;
    config.seed = 9;
    config.radius = 1.2 / std::sqrt(static_cast<double>(kNodes));
    config.lossProbability = 0.05;
    config.collisionWindow = config.beaconInterval / 20;
    config.index = index;
    config.queue = queue;
    StaticPlacement mobility(points(kNodes, 5));
    NetworkSimulator<BitState> sim(sis, ids, mobility, config);
    const auto t0 = std::chrono::steady_clock::now();
    sim.run(2 * config.beaconInterval);
    *seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return std::make_pair(sim.states(), sim.indexStats().rangeChecks);
  };

  double gridSeconds = 0.0;
  double scanSeconds = 0.0;
  const auto grid =
      runMode(IndexMode::Grid, QueueMode::Calendar, &gridSeconds);
  const auto scan = runMode(IndexMode::Scan, QueueMode::Heap, &scanSeconds);
  if (grid.first != scan.first) {
    std::fprintf(stderr,
                 "micro_network: grid and scan trajectories diverged\n");
    std::exit(1);
  }
  bench::appendBenchJson(
      "micro_network_grid_vs_scan",
      {{"n", static_cast<double>(kNodes)},
       {"grid_seconds", gridSeconds},
       {"scan_seconds", scanSeconds},
       {"speedup", scanSeconds / gridSeconds},
       {"grid_range_checks", static_cast<double>(grid.second)},
       {"scan_range_checks", static_cast<double>(scan.second)}});
}

// The window executor's grain table: wall time of 2 simulated seconds of
// SMM under waypoint mobility (the beacon-waypoint workload's shape: ~15
// neighbours per node, 1 ms delay, 100 ms beacons) at 1-4 workers, for
// several expected beacons per window. kBeaconWindowGrain is the smallest
// per-worker share at which a worker count beats the one below it. Every
// column must end in the same states (the table doubles as a check).
void printWindowGrainTable() {
  std::printf("window executor grain (ms per 2 simulated s; best of 3)\n");
  std::printf("%9s %7s %8s %8s %8s %8s\n", "beacons/w", "n", "1 wkr",
              "2 wkrs", "3 wkrs", "4 wkrs");
  const core::SmmProtocol smm = core::smmPaper();
  for (const std::size_t perWindow : {6, 12, 24, 48, 96}) {
    const std::size_t n = perWindow * 100;
    const IdAssignment ids = IdAssignment::identity(n);
    std::printf("%9zu %7zu", perWindow, n);
    std::vector<PointerState> reference;
    for (std::size_t workers = 1; workers <= 4; ++workers) {
      double best = 1e30;
      for (int rep = 0; rep < 3; ++rep) {
        graph::Rng rng(21);
        RandomWaypoint::Config wp;
        wp.speedMin = 0.01;
        wp.speedMax = 0.05;
        RandomWaypoint mobility(graph::randomPoints(n, rng), wp, 22);
        NetworkConfig config;
        config.seed = 23;
        config.radius = std::sqrt(15.0 / (3.14159 * static_cast<double>(n)));
        NetworkSimulator<PointerState> sim(smm, ids, mobility, config,
                                           workers);
        const auto t0 = std::chrono::steady_clock::now();
        sim.run(2 * kSecond);
        best = std::min(best, std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
        if (reference.empty()) reference = sim.states();
        if (sim.states() != reference) {
          std::fprintf(stderr, "micro_network: %zu workers diverged\n",
                       workers);
          std::exit(1);
        }
      }
      std::printf(" %8.1f", 1e3 * best);
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace selfstab::adhoc

int main(int argc, char** argv) {
  selfstab::adhoc::emitGridVsScan();
  selfstab::adhoc::printWindowGrainTable();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

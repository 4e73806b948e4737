// SimChaosController: fault plans injected into the beacon-model simulator.
#include "chaos/injector.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "analysis/verifiers.hpp"
#include "chaos/campaign.hpp"
#include "chaos/plan.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"
#include "graph/geometry.hpp"

namespace selfstab::chaos {
namespace {

using adhoc::NetworkConfig;
using adhoc::NetworkSimulator;
using adhoc::SimTime;
using adhoc::StaticPlacement;
using core::PointerState;

constexpr std::uint64_t kChaosSeed = 0xC4A05ULL;

std::vector<graph::Point> connectedPoints(std::size_t n, double radius,
                                          std::uint64_t seed) {
  graph::Rng rng(seed);
  std::vector<graph::Point> pts;
  graph::connectedRandomGeometric(n, radius, rng, &pts);
  return pts;
}

struct SimOutcome {
  std::vector<PointerState> states;
  adhoc::NetworkStats stats;
  std::vector<RecoveryMonitor::Record> records;
  bool quiet = false;
  double lossAfter = 0.0;
  graph::Graph topo{0};
};

/// Runs SMM under `plan` over a static placement; the run continues past
/// the plan tail until the network is quiet (or the generous budget ends).
SimOutcome runSmmSim(const FaultPlan& plan, std::size_t n, std::uint64_t seed,
                     adhoc::IndexMode index = adhoc::IndexMode::Grid,
                     adhoc::QueueMode queue = adhoc::QueueMode::Calendar) {
  NetworkConfig config;
  config.seed = seed;
  config.index = index;
  config.queue = queue;
  StaticPlacement mobility(connectedPoints(n, config.radius, seed));
  const auto ids = graph::IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();
  NetworkSimulator<PointerState> sim(smm, ids, mobility, config);

  RecoveryMonitor monitor;
  SimChaosController<PointerState, decltype(&core::randomPointerState)>
      controller(sim, plan, kChaosSeed, &core::randomPointerState,
                 config.beaconInterval, monitor);

  const SimTime budget =
      controller.noQuietBefore() + 4000 * config.beaconInterval;
  const auto result = sim.runUntilQuiet(5 * config.beaconInterval, budget,
                                        controller.noQuietBefore());
  controller.finalize();

  SimOutcome out;
  out.states = sim.states();
  out.stats = sim.stats();
  out.records = monitor.records();
  out.quiet = result.quiet;
  out.lossAfter = sim.lossProbability();
  out.topo = sim.currentTopology();
  return out;
}

TEST(SimInjector, EmptyPlanLeavesTrajectoryUntouched) {
  const std::size_t n = 18;
  // Reference: no chaos machinery at all.
  NetworkConfig config;
  config.seed = 31;
  StaticPlacement mobility(connectedPoints(n, config.radius, 31));
  const auto ids = graph::IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();
  NetworkSimulator<PointerState> plain(smm, ids, mobility, config);
  const auto plainResult = plain.runUntilQuiet(5 * config.beaconInterval,
                                               1000 * config.beaconInterval);
  ASSERT_TRUE(plainResult.quiet);

  // Same run with an inert (empty-plan) controller, and — separately — with
  // the chaos state block attached but no events: both must be bit-identical.
  {
    const auto out = runSmmSim(FaultPlan{}, n, 31);
    EXPECT_TRUE(out.quiet);
    EXPECT_EQ(out.states, plain.states());
    EXPECT_EQ(out.stats, plainResult.stats);
    EXPECT_TRUE(out.records.empty());
  }
  {
    StaticPlacement mobility2(connectedPoints(n, config.radius, 31));
    NetworkSimulator<PointerState> attached(smm, ids, mobility2, config);
    attached.chaosAttach(1.0);
    const auto attachedResult = attached.runUntilQuiet(
        5 * config.beaconInterval, 1000 * config.beaconInterval);
    EXPECT_TRUE(attachedResult.quiet);
    EXPECT_EQ(attached.states(), plain.states());
    EXPECT_EQ(attachedResult.stats, plainResult.stats);
  }
}

TEST(SimInjector, ChurnCampaignRecoversAndReconverges) {
  const std::size_t n = 16;
  const FaultPlan plan = makeCampaign("churn", 9, n);
  const auto out = runSmmSim(plan, n, 9);
  EXPECT_TRUE(out.quiet);
  // Every fault window closed, recovered, one record per event (loss-burst
  // restore ticks do not open windows of their own).
  ASSERT_EQ(out.records.size(), plan.events.size());
  for (const auto& r : out.records) {
    EXPECT_TRUE(r.recovered) << r.kind << " at round " << r.at;
  }
  // The loss burst restored the base probability.
  EXPECT_DOUBLE_EQ(out.lossAfter, 0.0);
  EXPECT_TRUE(analysis::checkMatchingFixpoint(out.topo, out.states).ok());
}

TEST(SimInjector, DeterministicAcrossIndexAndQueueModes) {
  const std::size_t n = 16;
  const FaultPlan plan = makeCampaign("churn", 12, n);
  const auto gridCal = runSmmSim(plan, n, 12, adhoc::IndexMode::Grid,
                                 adhoc::QueueMode::Calendar);
  const auto scanHeap = runSmmSim(plan, n, 12, adhoc::IndexMode::Scan,
                                  adhoc::QueueMode::Heap);
  const auto gridHeap = runSmmSim(plan, n, 12, adhoc::IndexMode::Grid,
                                  adhoc::QueueMode::Heap);
  EXPECT_EQ(gridCal.states, scanHeap.states);
  EXPECT_EQ(gridCal.states, gridHeap.states);
  EXPECT_EQ(gridCal.stats, scanHeap.stats);
  EXPECT_EQ(gridCal.stats, gridHeap.stats);
  ASSERT_EQ(gridCal.records.size(), scanHeap.records.size());
  for (std::size_t i = 0; i < gridCal.records.size(); ++i) {
    EXPECT_EQ(gridCal.records[i].recoveryRounds,
              scanHeap.records[i].recoveryRounds);
    EXPECT_EQ(gridCal.records[i].containmentRadius,
              scanHeap.records[i].containmentRadius);
    EXPECT_EQ(gridCal.records[i].recovered, scanHeap.records[i].recovered);
  }
}

TEST(SimInjector, DeterministicAcrossRepeatedRuns) {
  const std::size_t n = 14;
  const FaultPlan plan = makeCampaign("crash-storm", 3, n);
  const auto a = runSmmSim(plan, n, 3);
  const auto b = runSmmSim(plan, n, 3);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.stats, b.stats);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].recoveryRounds, b.records[i].recoveryRounds);
    EXPECT_EQ(a.records[i].containmentRadius, b.records[i].containmentRadius);
  }
}

TEST(SimInjector, CrashSilencesNodeUntilRejoin) {
  // Crash node 0 and never rejoin it: its neighbors age it out of their
  // caches and restabilize without it, while its own state stays frozen.
  const std::size_t n = 12;
  NetworkConfig config;
  config.seed = 23;
  StaticPlacement mobility(connectedPoints(n, config.radius, 23));
  const auto ids = graph::IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();
  NetworkSimulator<PointerState> sim(smm, ids, mobility, config);

  // Controller first: ticks must be scheduled in the queue's future.
  FaultPlan plan;
  FaultEvent crash;
  crash.at = 200;
  crash.kind = FaultKind::Crash;
  crash.node = 0;
  plan.events.push_back(crash);
  RecoveryMonitor monitor;
  SimChaosController<PointerState, decltype(&core::randomPointerState)>
      controller(sim, plan, kChaosSeed, &core::randomPointerState,
                 config.beaconInterval, monitor);

  // Phase 1: converge well before the crash fires; static placement and
  // zero loss mean the state is then unchanged until the fault tick.
  ASSERT_TRUE(sim.runUntilQuiet(5 * config.beaconInterval,
                                190 * config.beaconInterval)
                  .quiet);
  const PointerState frozen = sim.states()[0];

  sim.runUntilQuiet(5 * config.beaconInterval,
                    400 * config.beaconInterval,
                    controller.noQuietBefore());
  controller.finalize();

  EXPECT_TRUE(sim.chaosCrashed(0));
  EXPECT_EQ(sim.states()[0], frozen);
  // Survivors form a valid matching among themselves: no live pointer may
  // still target the crashed node after its cache entries expired.
  for (graph::Vertex v = 1; v < n; ++v) {
    EXPECT_NE(sim.states()[v].ptr, 0u) << "node " << v;
  }
}

TEST(SimInjector, SisSurvivesRollingPartition) {
  const std::size_t n = 15;
  NetworkConfig config;
  config.seed = 41;
  StaticPlacement mobility(connectedPoints(n, config.radius, 41));
  const auto ids = graph::IdAssignment::identity(n);
  const core::SisProtocol sis;
  NetworkSimulator<core::BitState> sim(sis, ids, mobility, config);

  const FaultPlan plan = makeCampaign("rolling-partition", 2, n);
  RecoveryMonitor monitor;
  SimChaosController<core::BitState, decltype(&core::randomBitState)>
      controller(sim, plan, kChaosSeed, &core::randomBitState,
                 config.beaconInterval, monitor);
  const auto result = sim.runUntilQuiet(
      5 * config.beaconInterval,
      controller.noQuietBefore() + 4000 * config.beaconInterval,
      controller.noQuietBefore());
  controller.finalize();

  ASSERT_TRUE(result.quiet);
  EXPECT_EQ(monitor.records().size(), plan.events.size());
  EXPECT_TRUE(analysis::isMaximalIndependentSet(
      sim.currentTopology(), analysis::membersOf(sim.states())));
}

/// A listed node's corrupted state is its own keyed draw, under the
/// event's index: naming a second node in the same event leaves it alone.
/// The node is stuck first, so the state it keeps is the one drawn.
TEST(SimInjector, ListedCorruptionDrawsPerNode) {
  const std::size_t n = 16;
  const graph::Vertex v = 5;
  const graph::Vertex w = 9;
  NetworkConfig config;
  config.seed = 17;
  const std::vector<graph::Point> points =
      connectedPoints(n, config.radius, 17);
  const auto ids = graph::IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();
  const auto stateAfter = [&](std::vector<graph::Vertex> victims) {
    StaticPlacement mobility(points);
    NetworkSimulator<PointerState> sim(smm, ids, mobility, config);
    FaultPlan plan;
    FaultEvent stuck;
    stuck.at = 10;
    stuck.kind = FaultKind::Stuck;
    stuck.node = v;
    FaultEvent corrupt;
    corrupt.at = 20;
    corrupt.kind = FaultKind::Corrupt;
    corrupt.nodes = std::move(victims);
    plan.events = {stuck, corrupt};
    RecoveryMonitor monitor;
    SimChaosController<PointerState, decltype(&core::randomPointerState)>
        controller(sim, plan, kChaosSeed, &core::randomPointerState,
                   config.beaconInterval, monitor);
    sim.run(40 * config.beaconInterval);
    return sim.states()[v];
  };
  const PointerState alone = stateAfter({v});
  EXPECT_EQ(stateAfter({v, w}), alone);
  EXPECT_EQ(stateAfter({w, v}), alone);

  // It is event 1's draw from v's own stream over the unit-disk graph.
  const graph::Graph topo = graph::unitDiskGraph(points, config.radius);
  Rng rng = engine::nodeRng(hashCombine(kChaosSeed, 1), topo, v);
  EXPECT_EQ(alone, core::randomPointerState(v, topo, rng));
}

/// Records each state it hands out, by node; each node is drawn at most
/// once per event, so team workers never write the same slot.
struct RecordingSampler {
  std::vector<std::optional<PointerState>>* drawn;
  PointerState operator()(graph::Vertex v, const graph::Graph& g,
                          Rng& rng) const {
    const PointerState s = core::randomPointerState(v, g, rng);
    (*drawn)[v] = s;
    return s;
  }
};

/// On a static placement the simulator's fraction corruption is the
/// abstract campaign's: the same plan, chaos seed and event index hit the
/// same nodes with the same states, on the team in both drivers (n spans
/// several keyed-draw blocks).
TEST(SimInjector, FractionCorruptionMatchesEngineCampaign) {
  const std::size_t n = 3 * engine::kSampleGrain;
  const double radius = 0.02;
  graph::Rng rng(23);
  const std::vector<graph::Point> points = graph::randomPoints(n, rng);
  FaultPlan plan;
  FaultEvent corrupt;
  corrupt.at = 3;
  corrupt.kind = FaultKind::Corrupt;
  corrupt.fraction = 0.25;
  plan.events = {corrupt};
  const auto ids = graph::IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();

  std::vector<std::optional<PointerState>> simDrawn(n);
  {
    NetworkConfig config;
    config.seed = 23;
    config.radius = radius;
    StaticPlacement mobility(points);
    NetworkSimulator<PointerState> sim(smm, ids, mobility, config);
    RecoveryMonitor monitor;
    SimChaosController<PointerState, RecordingSampler> controller(
        sim, plan, kChaosSeed, RecordingSampler{&simDrawn},
        config.beaconInterval, monitor);
    sim.run(5 * config.beaconInterval);
    controller.finalize();
    ASSERT_EQ(monitor.records().size(), 1u);
  }

  std::vector<std::optional<PointerState>> engineDrawn(n);
  {
    graph::Graph g = graph::unitDiskGraph(points, radius);
    engine::SyncRunner<PointerState> runner(smm, g, ids, 23,
                                            engine::Schedule::Dense, 4);
    std::vector<PointerState> states = runner.initialStates();
    runEngineCampaign(runner, smm, g, ids, states, plan, kChaosSeed, 1,
                      RecordingSampler{&engineDrawn});
  }

  std::size_t hits = 0;
  for (std::size_t v = 0; v < n; ++v) hits += simDrawn[v].has_value();
  EXPECT_GT(hits, n / 8);
  EXPECT_LT(hits, n / 2);
  EXPECT_TRUE(simDrawn == engineDrawn);
}

}  // namespace
}  // namespace selfstab::chaos

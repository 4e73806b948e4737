// The beacon-model simulator: protocols running over actual periodic
// messages, neighbor discovery, loss, and mobility.
#include "adhoc/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "analysis/verifiers.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "graph/generators.hpp"

namespace selfstab::adhoc {
namespace {

using analysis::checkMatchingFixpoint;
using analysis::isMaximalIndependentSet;
using analysis::membersOf;
using core::BitState;
using core::PointerState;
using graph::IdAssignment;

std::vector<graph::Point> connectedPoints(std::size_t n, double radius,
                                          std::uint64_t seed) {
  graph::Rng rng(seed);
  std::vector<graph::Point> pts;
  graph::connectedRandomGeometric(n, radius, rng, &pts);
  return pts;
}

TEST(Network, SmmStabilizesOverBeacons) {
  const std::size_t n = 20;
  NetworkConfig config;
  config.seed = 101;
  StaticPlacement mobility(connectedPoints(n, config.radius, 1));
  const auto ids = IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();
  NetworkSimulator<PointerState> sim(smm, ids, mobility, config);

  const auto result = sim.runUntilQuiet(5 * config.beaconInterval,
                                        1000 * config.beaconInterval);
  ASSERT_TRUE(result.quiet);
  EXPECT_TRUE(checkMatchingFixpoint(sim.currentTopology(), sim.states()).ok());
  EXPECT_GT(result.stats.beaconsSent, 0u);
  EXPECT_GT(result.stats.beaconsDelivered, 0u);
  EXPECT_EQ(result.stats.beaconsLost, 0u);
}

TEST(Network, SisStabilizesOverBeacons) {
  const std::size_t n = 25;
  NetworkConfig config;
  config.seed = 103;
  StaticPlacement mobility(connectedPoints(n, config.radius, 2));
  const auto ids = IdAssignment::identity(n);
  const core::SisProtocol sis;
  NetworkSimulator<BitState> sim(sis, ids, mobility, config);

  const auto result = sim.runUntilQuiet(5 * config.beaconInterval,
                                        1000 * config.beaconInterval);
  ASSERT_TRUE(result.quiet);
  EXPECT_TRUE(
      isMaximalIndependentSet(sim.currentTopology(), membersOf(sim.states())));
}

TEST(Network, StabilizesDespiteBeaconLoss) {
  const std::size_t n = 15;
  NetworkConfig config;
  config.seed = 107;
  config.lossProbability = 0.2;
  StaticPlacement mobility(connectedPoints(n, config.radius, 3));
  const auto ids = IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();
  NetworkSimulator<PointerState> sim(smm, ids, mobility, config);

  const auto result = sim.runUntilQuiet(8 * config.beaconInterval,
                                        5000 * config.beaconInterval);
  ASSERT_TRUE(result.quiet);
  EXPECT_GT(result.stats.beaconsLost, 0u);
  EXPECT_TRUE(checkMatchingFixpoint(sim.currentTopology(), sim.states()).ok());
}

TEST(Network, RecoversAfterStateCorruption) {
  const std::size_t n = 16;
  NetworkConfig config;
  config.seed = 109;
  StaticPlacement mobility(connectedPoints(n, config.radius, 4));
  const auto ids = IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();
  NetworkSimulator<PointerState> sim(smm, ids, mobility, config);

  ASSERT_TRUE(sim.runUntilQuiet(5 * config.beaconInterval,
                                1000 * config.beaconInterval)
                  .quiet);

  // Transient fault: scramble every node's pointer arbitrarily.
  graph::Rng rng(55);
  auto corrupted = sim.states();
  const auto topo = sim.currentTopology();
  for (graph::Vertex v = 0; v < n; ++v) {
    corrupted[v] = core::wildPointerState(v, topo, rng);
  }
  sim.setStates(std::move(corrupted));

  const auto result = sim.runUntilQuiet(5 * config.beaconInterval,
                                        5000 * config.beaconInterval);
  ASSERT_TRUE(result.quiet);
  EXPECT_TRUE(checkMatchingFixpoint(sim.currentTopology(), sim.states()).ok());
}

TEST(Network, RestabilizesAfterMobilityStops) {
  const std::size_t n = 15;
  NetworkConfig config;
  config.seed = 113;
  config.radius = 0.45;
  RandomWaypoint::Config wpConfig;
  wpConfig.speedMin = 0.02;
  wpConfig.speedMax = 0.05;
  wpConfig.stopTime = 60 * kSecond;
  graph::Rng rng(5);
  RandomWaypoint mobility(graph::randomPoints(n, rng), wpConfig, 77);
  const auto ids = IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();
  NetworkSimulator<PointerState> sim(smm, ids, mobility, config);

  // Let it run through the mobile phase, then wait for quiet afterwards.
  sim.run(wpConfig.stopTime);
  const auto result = sim.runUntilQuiet(5 * config.beaconInterval,
                                        wpConfig.stopTime + 500 * kSecond);
  ASSERT_TRUE(result.quiet);
  // On the now-frozen topology the matching must be a valid maximal
  // matching of each connected component (the graph may be disconnected;
  // matching maximality is a per-edge condition, so one check suffices).
  EXPECT_TRUE(checkMatchingFixpoint(sim.currentTopology(), sim.states()).ok());
}

TEST(Network, CollisionsOccurAndProtocolsStillConverge) {
  const std::size_t n = 15;
  NetworkConfig config;
  config.seed = 307;
  // A wide collision window on a dense deployment guarantees plenty of MAC
  // collisions; jittered beacon phases still let every link through often
  // enough for convergence.
  config.collisionWindow = config.beaconInterval / 20;
  config.radius = 0.5;
  StaticPlacement mobility(connectedPoints(n, config.radius, 12));
  const auto ids = IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();
  NetworkSimulator<PointerState> sim(smm, ids, mobility, config);

  const auto result = sim.runUntilQuiet(8 * config.beaconInterval,
                                        5000 * config.beaconInterval);
  ASSERT_TRUE(result.quiet);
  EXPECT_GT(result.stats.beaconsCollided, 0u);
  EXPECT_TRUE(checkMatchingFixpoint(sim.currentTopology(), sim.states()).ok());
}

TEST(Network, ZeroCollisionWindowDisablesTheModel) {
  NetworkConfig config;
  config.seed = 311;
  config.collisionWindow = 0;
  StaticPlacement mobility(connectedPoints(10, config.radius, 13));
  const auto ids = IdAssignment::identity(10);
  const core::SisProtocol sis;
  NetworkSimulator<BitState> sim(sis, ids, mobility, config);
  sim.run(100 * config.beaconInterval);
  EXPECT_EQ(sim.stats().beaconsCollided, 0u);
}

TEST(Network, RecoversAfterNodeReboots) {
  const std::size_t n = 14;
  NetworkConfig config;
  config.seed = 211;
  StaticPlacement mobility(connectedPoints(n, config.radius, 8));
  const auto ids = IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();
  NetworkSimulator<PointerState> sim(smm, ids, mobility, config);

  ASSERT_TRUE(sim.runUntilQuiet(5 * config.beaconInterval,
                                1000 * config.beaconInterval)
                  .quiet);

  // Crash-restart a third of the hosts: state wiped, neighbor caches lost.
  for (graph::Vertex v = 0; v < n; v += 3) sim.rebootNode(v);

  const auto result = sim.runUntilQuiet(5 * config.beaconInterval,
                                        5000 * config.beaconInterval);
  ASSERT_TRUE(result.quiet);
  EXPECT_TRUE(checkMatchingFixpoint(sim.currentTopology(), sim.states()).ok());
}

TEST(Network, RebootedNodeRelearnsNeighbors) {
  // After a reboot the node knows nobody; one beacon interval later it has
  // heard its neighbors again and can participate (it may transiently
  // propose based on an empty cache, which self-stabilization absorbs).
  NetworkConfig config;
  config.seed = 223;
  StaticPlacement mobility(connectedPoints(6, config.radius, 9));
  const auto ids = IdAssignment::identity(6);
  const core::SisProtocol sis;
  NetworkSimulator<BitState> sim(sis, ids, mobility, config);
  ASSERT_TRUE(sim.runUntilQuiet(5 * config.beaconInterval,
                                1000 * config.beaconInterval)
                  .quiet);
  sim.rebootNode(0);
  const auto result = sim.runUntilQuiet(5 * config.beaconInterval,
                                        2000 * config.beaconInterval);
  ASSERT_TRUE(result.quiet);
  EXPECT_TRUE(
      isMaximalIndependentSet(sim.currentTopology(), membersOf(sim.states())));
}

TEST(Network, AsymmetricLinksCanWedgeSmm) {
  // Assumption ablation: the paper requires bidirectional links. With
  // heterogeneous transmit powers, A can hear B while B never hears A; A
  // then proposes to the (apparently aloof) B and waits forever — a quiet
  // but non-clean terminal state. This documents what the bidirectionality
  // assumption buys.
  NetworkConfig config;
  config.seed = 401;
  config.perNodeRadius = {0.2, 0.4};  // dist 0.3: only B's beacons carry
  StaticPlacement mobility({{0.0, 0.0}, {0.3, 0.0}});
  const auto ids = IdAssignment::identity(2);
  const core::SmmProtocol smm = core::smmPaper();
  NetworkSimulator<PointerState> sim(smm, ids, mobility, config);

  const auto result = sim.runUntilQuiet(5 * config.beaconInterval,
                                        200 * config.beaconInterval);
  ASSERT_TRUE(result.quiet);
  const auto states = sim.states();
  EXPECT_EQ(states[0].ptr, 1u);      // A wedged: points at B forever
  EXPECT_TRUE(states[1].isNull());   // B never heard the proposal
  // On the bidirectional core (which is empty here) this is not a clean
  // fixpoint shape — the pointer dangles.
  EXPECT_FALSE(
      analysis::checkMatchingFixpoint(sim.currentTopology(), states).ok());
}

TEST(Network, SymmetricRangesKeepTheGuarantees) {
  // Control for the test above: same geometry, both radios strong enough,
  // SMM matches the pair.
  NetworkConfig config;
  config.seed = 403;
  config.perNodeRadius = {0.4, 0.4};
  StaticPlacement mobility({{0.0, 0.0}, {0.3, 0.0}});
  const auto ids = IdAssignment::identity(2);
  const core::SmmProtocol smm = core::smmPaper();
  NetworkSimulator<PointerState> sim(smm, ids, mobility, config);
  const auto result = sim.runUntilQuiet(5 * config.beaconInterval,
                                        200 * config.beaconInterval);
  ASSERT_TRUE(result.quiet);
  EXPECT_TRUE(
      analysis::checkMatchingFixpoint(sim.currentTopology(), sim.states())
          .ok());
  EXPECT_EQ(sim.states()[0].ptr, 1u);
  EXPECT_EQ(sim.states()[1].ptr, 0u);
}

TEST(Network, RoundsElapsedTracksBeaconIntervals) {
  NetworkConfig config;
  config.seed = 127;
  StaticPlacement mobility(connectedPoints(5, config.radius, 6));
  const auto ids = IdAssignment::identity(5);
  const core::SisProtocol sis;
  NetworkSimulator<BitState> sim(sis, ids, mobility, config);
  sim.run(10 * config.beaconInterval);
  EXPECT_NEAR(sim.roundsElapsed(), 10.0, 0.5);
}

TEST(Network, RebootChurnBitIdenticalAcrossIndexAndQueueModes) {
  // Regression for the churn path: reboots interleaved with chaos
  // crash/rejoin must stay bit-identical between the grid spatial index and
  // the O(n^2) reference scan (and between the two event queues). A reboot
  // touches the neighbor cache and dirty bits; a crash orphans the node's
  // beacon-timer chain via the epoch counter; a rejoin re-places the node
  // in the grid. Any RNG-stream or index desynchronization in those paths
  // shows up here as diverging states or stats.
  const std::size_t n = 16;
  const auto pts = connectedPoints(n, 0.35, 11);
  const auto ids = IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();

  NetworkConfig gridConfig;
  gridConfig.seed = 503;
  gridConfig.index = IndexMode::Grid;
  gridConfig.queue = QueueMode::Calendar;
  NetworkConfig scanConfig = gridConfig;
  scanConfig.index = IndexMode::Scan;
  scanConfig.queue = QueueMode::Heap;

  StaticPlacement mobilityA(pts);
  StaticPlacement mobilityB(pts);
  NetworkSimulator<PointerState> grid(smm, ids, mobilityA, gridConfig);
  NetworkSimulator<PointerState> scan(smm, ids, mobilityB, scanConfig);
  grid.chaosAttach(1.0);
  scan.chaosAttach(1.0);

  const SimTime interval = gridConfig.beaconInterval;
  const auto both = [&](auto&& mutate) {
    mutate(grid);
    mutate(scan);
  };
  SimTime t = 0;
  const auto advance = [&](SimTime dt) {
    t += dt;
    grid.run(t);
    scan.run(t);
    ASSERT_EQ(grid.states(), scan.states()) << "t=" << t;
    ASSERT_EQ(grid.stats(), scan.stats()) << "t=" << t;
  };

  advance(20 * interval);
  both([](auto& sim) { sim.rebootNode(3); });
  advance(15 * interval);
  both([](auto& sim) { sim.chaosCrash(7); });
  advance(15 * interval);
  // Reboot a neighbor while 7 is down, then bring 7 back mid-churn with a
  // fixed restart phase so both sims replay the same timeline.
  both([](auto& sim) { sim.rebootNode(0); });
  advance(10 * interval);
  both([&](auto& sim) { sim.chaosRejoin(7, interval / 3); });
  both([](auto& sim) { sim.rebootNode(7); });
  advance(40 * interval);

  EXPECT_FALSE(grid.chaosCrashed(7));
  // Long clean tail: both sims must re-stabilize to the same matching.
  advance(300 * interval);
  EXPECT_GE(grid.now() - grid.lastMoveTime(), 5 * interval);
  EXPECT_TRUE(
      checkMatchingFixpoint(grid.currentTopology(), grid.states()).ok());
}

// Each (beacon, receiver) loss is its own keyed draw, so over many
// beacons the lost share of the in-range receptions is lossProbability, in
// the per-event loop and in the window executor alike. On a static clique
// every beacon has n - 1 receivers in range, so the receptions are exactly
// beaconsSent x (n - 1), arrivals still in flight included.
TEST(Network, KeyedLossesMatchTheLossProbability) {
  constexpr std::size_t kN = 30;
  std::vector<graph::Point> pts;
  graph::Rng rng(17);
  for (std::size_t i = 0; i < kN; ++i) {
    pts.push_back({rng.real(0.0, 0.2), rng.real(0.0, 0.2)});
  }
  const auto ids = IdAssignment::identity(kN);
  const core::SisProtocol sis;
  for (const double p : {0.05, 0.2, 0.5}) {
    for (const std::size_t workers : {kPerEventLoop, std::size_t{1}}) {
      NetworkConfig config;
      config.seed = 139;
      config.lossProbability = p;
      StaticPlacement mobility(pts);
      NetworkSimulator<BitState> sim(sis, ids, mobility, config, workers);
      sim.run(300 * config.beaconInterval);
      const double receptions =
          static_cast<double>(sim.stats().beaconsSent * (kN - 1));
      const double share =
          static_cast<double>(sim.stats().beaconsLost) / receptions;
      const double sigma = std::sqrt(p * (1.0 - p) / receptions);
      EXPECT_NEAR(share, p, 5.0 * sigma)
          << "p " << p << " workers " << workers;
    }
  }
}

// A node's jitter is drawn afresh for every beacon (keyed by node and send
// time), so one node's beacon intervals spread over
// [(1 - jitterFraction), (1 + jitterFraction)] x beaconInterval around the
// interval itself. A lone node's timer firings are the spans the per-event
// loop prepares its positions over.
TEST(Network, JitterSpreadsEachNodesIntervals) {
  struct Recorder final : Mobility {
    std::vector<SimTime> fired;
    [[nodiscard]] std::size_t order() const override { return 1; }
    [[nodiscard]] graph::Point position(graph::Vertex, SimTime) override {
      return {0.5, 0.5};
    }
    void prepare(SimTime from, SimTime) override { fired.push_back(from); }
    [[nodiscard]] graph::Point preparedPosition(graph::Vertex,
                                                SimTime) const override {
      return {0.5, 0.5};
    }
    [[nodiscard]] double maxSpeed() const noexcept override { return 0.0; }
    [[nodiscard]] SimTime settleTime() const noexcept override { return 0; }
  };
  NetworkConfig config;
  config.seed = 149;
  config.jitterFraction = 0.2;
  Recorder mobility;
  const auto ids = IdAssignment::identity(1);
  const core::SisProtocol sis;
  NetworkSimulator<BitState> sim(sis, ids, mobility, config, kPerEventLoop);
  sim.run(400 * config.beaconInterval);
  ASSERT_GT(mobility.fired.size(), 300U);
  const auto interval = static_cast<double>(config.beaconInterval);
  std::vector<SimTime> gaps;
  double sum = 0.0;
  for (std::size_t i = 1; i < mobility.fired.size(); ++i) {
    const SimTime gap = mobility.fired[i] - mobility.fired[i - 1];
    EXPECT_GE(static_cast<double>(gap), (1.0 - 0.2) * interval - 1.0);
    EXPECT_LE(static_cast<double>(gap), (1.0 + 0.2) * interval);
    gaps.push_back(gap);
    sum += static_cast<double>(gap);
  }
  // Uniform jitter: the mean gap is the interval, within a few standard
  // errors (0.2 / sqrt(3) x interval / sqrt(gaps)).
  EXPECT_NEAR(sum / static_cast<double>(gaps.size()), interval,
              0.02 * interval);
  std::sort(gaps.begin(), gaps.end());
  EXPECT_GT(std::unique(gaps.begin(), gaps.end()) - gaps.begin(), 100);
}

TEST(Network, DeterministicForFixedSeed) {
  NetworkConfig config;
  config.seed = 131;
  const auto ids = IdAssignment::identity(10);
  const core::SmmProtocol smm = core::smmPaper();

  const auto pts = connectedPoints(10, config.radius, 7);
  StaticPlacement mobilityA(pts);
  StaticPlacement mobilityB(pts);
  NetworkSimulator<PointerState> simA(smm, ids, mobilityA, config);
  NetworkSimulator<PointerState> simB(smm, ids, mobilityB, config);
  simA.run(50 * config.beaconInterval);
  simB.run(50 * config.beaconInterval);
  EXPECT_EQ(simA.states(), simB.states());
  EXPECT_EQ(simA.stats().beaconsSent, simB.stats().beaconsSent);
  EXPECT_EQ(simA.stats().moves, simB.stats().moves);
}

}  // namespace
}  // namespace selfstab::adhoc

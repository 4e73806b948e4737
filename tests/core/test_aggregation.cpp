// Extension: self-stabilizing convergecast over the leader tree (protocol
// composition; the introduction's "echo-based distributed algorithms").
#include "core/aggregation.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "analysis/verifiers.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace selfstab::core {
namespace {

using engine::SyncRunner;
using graph::Graph;
using graph::IdAssignment;
using graph::Vertex;

std::vector<std::uint64_t> sequentialReadings(std::size_t n) {
  std::vector<std::uint64_t> readings(n);
  for (std::size_t v = 0; v < n; ++v) readings[v] = 100 + v;
  return readings;
}

// The leader of the component containing vertex 0 must publish the exact
// component-wide (sum, count).
void expectLeaderAggregate(const Graph& g, const IdAssignment& ids,
                           const std::vector<std::uint64_t>& readings,
                           const std::vector<AggregateState>& states) {
  const auto comp = graph::connectedComponents(g);
  const std::size_t components = graph::componentCount(g);
  for (std::size_t c = 0; c < components; ++c) {
    Vertex leader = graph::kNoVertex;
    std::uint64_t expectedSum = 0;
    std::uint32_t expectedCount = 0;
    for (Vertex v = 0; v < g.order(); ++v) {
      if (comp[v] != c) continue;
      expectedSum += readings[v];
      ++expectedCount;
      if (leader == graph::kNoVertex || ids.less(leader, v)) leader = v;
    }
    ASSERT_NE(leader, graph::kNoVertex);
    EXPECT_EQ(states[leader].sum, expectedSum) << "component " << c;
    EXPECT_EQ(states[leader].count, expectedCount) << "component " << c;
  }
}

TEST(Aggregation, CleanStartComputesComponentTotals) {
  graph::Rng rng(131);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = graph::connectedErdosRenyi(20, 0.15, rng);
    const auto ids = IdAssignment::identity(g.order());
    const auto readings = sequentialReadings(g.order());
    const AggregationProtocol protocol(
        static_cast<std::uint32_t>(g.order()), &readings);
    SyncRunner<AggregateState> runner(protocol, g, ids);
    auto states = runner.initialStates();
    const auto result = runner.run(states, 4 * g.order());
    ASSERT_TRUE(result.stabilized) << "trial " << trial;
    expectLeaderAggregate(g, ids, readings, states);
  }
}

TEST(Aggregation, TreeLayerMatchesStandaloneLeaderTree) {
  graph::Rng rng(133);
  const Graph g = graph::connectedRandomGeometric(18, 0.35, rng);
  const auto ids = IdAssignment::identity(g.order());
  const auto readings = sequentialReadings(g.order());
  const auto cap = static_cast<std::uint32_t>(g.order());

  const AggregationProtocol agg(cap, &readings);
  SyncRunner<AggregateState> aggRunner(agg, g, ids);
  auto aggStates = aggRunner.initialStates();
  ASSERT_TRUE(aggRunner.run(aggStates, 4 * g.order()).stabilized);

  std::vector<LeaderState> treeStates(g.order());
  for (Vertex v = 0; v < g.order(); ++v) treeStates[v] = aggStates[v].tree;
  EXPECT_TRUE(analysis::isLeaderTree(g, ids, treeStates));
}

TEST(Aggregation, RecoversFromArbitraryCorruption) {
  graph::Rng rng(137);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = graph::connectedErdosRenyi(16, 0.2, rng);
    const auto ids = IdAssignment::identity(g.order());
    const auto readings = sequentialReadings(g.order());
    const AggregationProtocol protocol(
        static_cast<std::uint32_t>(g.order()), &readings);
    auto states = engine::randomConfiguration<AggregateState>(
        g, rng, randomAggregateState);
    SyncRunner<AggregateState> runner(protocol, g, ids);
    const auto result = runner.run(states, 5 * g.order());
    ASSERT_TRUE(result.stabilized) << "trial " << trial;
    expectLeaderAggregate(g, ids, readings, states);
  }
}

TEST(Aggregation, TracksChangedReadings) {
  // Sensor values change after stabilization; only the sum layer must
  // re-run (the tree is already correct), and the new total appears. The
  // readings are inputs outside every node's neighborhood, so neither
  // schedule may treat the unchanged configuration as settled: the active
  // schedule may not skip clean nodes, nor the dense one the quiet round.
  for (const auto schedule :
       {engine::Schedule::Dense, engine::Schedule::Active}) {
    SCOPED_TRACE(engine::toString(schedule));
    const Graph g = graph::binaryTree(15);
    const auto ids = IdAssignment::identity(g.order());
    auto readings = sequentialReadings(g.order());
    const AggregationProtocol protocol(
        static_cast<std::uint32_t>(g.order()), &readings);
    EXPECT_TRUE(protocol.readsBeyondNeighborhood());
    SyncRunner<AggregateState> runner(protocol, g, ids, 0, schedule);
    auto states = runner.initialStates();
    ASSERT_TRUE(runner.run(states, 60).stabilized);
    expectLeaderAggregate(g, ids, readings, states);

    readings[3] += 1000;
    readings[7] = 0;
    const auto result = runner.run(states, 60);
    ASSERT_TRUE(result.stabilized);
    expectLeaderAggregate(g, ids, readings, states);
    // Repair is bounded by the distance from the changed sensors to the
    // leader (<= diameter = 6 on binaryTree(15), plus one settling round),
    // not by n.
    EXPECT_LE(result.rounds, 7u);
  }
}

TEST(Aggregation, PerComponentTotalsOnDisconnectedGraph) {
  Graph g(7);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(3, 4);  // second component
  // vertices 5, 6 isolated
  const auto ids = IdAssignment::identity(7);
  const auto readings = sequentialReadings(7);
  const AggregationProtocol protocol(7, &readings);
  SyncRunner<AggregateState> runner(protocol, g, ids);
  auto states = runner.initialStates();
  ASSERT_TRUE(runner.run(states, 40).stabilized);
  expectLeaderAggregate(g, ids, readings, states);
  EXPECT_EQ(states[2].sum, 100u + 101u + 102u);
  EXPECT_EQ(states[4].sum, 103u + 104u);
  EXPECT_EQ(states[5].sum, 105u);
  EXPECT_EQ(states[5].count, 1u);
}

TEST(Aggregation, SurvivesTopologyChange) {
  graph::Rng rng(139);
  Graph g = graph::connectedErdosRenyi(18, 0.15, rng);
  const auto ids = IdAssignment::identity(g.order());
  const auto readings = sequentialReadings(g.order());
  const AggregationProtocol protocol(
      static_cast<std::uint32_t>(g.order()), &readings);
  SyncRunner<AggregateState> runner(protocol, g, ids);
  auto states = runner.initialStates();
  ASSERT_TRUE(runner.run(states, 80).stabilized);

  engine::perturbTopology(g, rng, 5, /*keepConnected=*/true);
  SyncRunner<AggregateState> rerun(protocol, g, ids);
  ASSERT_TRUE(rerun.run(states, 80).stabilized);
  expectLeaderAggregate(g, ids, readings, states);
}

}  // namespace
}  // namespace selfstab::core

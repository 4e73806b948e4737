// Extension: rootless leader election + spanning tree, including the
// classical hard case of fake (non-existent) root IDs left by corruption.
#include "core/leader_tree.hpp"

#include <gtest/gtest.h>

#include "analysis/verifiers.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "engine/view_builder.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace selfstab::core {
namespace {

using analysis::isLeaderTree;
using engine::SyncRunner;
using engine::ViewBuilder;
using graph::Graph;
using graph::IdAssignment;

TEST(LeaderTreeRules, IsolatedNodeElectsItself) {
  const Graph g(1);
  const auto ids = IdAssignment::identity(1);
  ViewBuilder<LeaderState> builder(g, ids);
  const LeaderTreeProtocol protocol(1);
  std::vector<LeaderState> states{LeaderState{99, 3, 0}};
  const auto move = protocol.onRound(builder.build(0, states));
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->root, 0u);  // its own ID
  EXPECT_EQ(move->dist, 0u);
  EXPECT_EQ(move->parent, graph::kNoVertex);
}

TEST(LeaderTreeRules, AdoptsBiggerRootFromNeighbor) {
  const Graph g = graph::path(2);
  const auto ids = IdAssignment::identity(2);
  ViewBuilder<LeaderState> builder(g, ids);
  const LeaderTreeProtocol protocol(2);
  std::vector<LeaderState> states(2);
  states[1] = LeaderState{1, 0, graph::kNoVertex};  // node 1 is its own root
  const auto move = protocol.onRound(builder.build(0, states));
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->root, 1u);
  EXPECT_EQ(move->dist, 1u);
  EXPECT_EQ(move->parent, 1u);
}

TEST(LeaderTreeRules, PrefersOwnCandidacyOverSmallerRoots) {
  const Graph g = graph::path(2);
  const auto ids = IdAssignment::identity(2);
  ViewBuilder<LeaderState> builder(g, ids);
  const LeaderTreeProtocol protocol(2);
  std::vector<LeaderState> states(2);
  states[0] = LeaderState{0, 0, graph::kNoVertex};
  states[1] = LeaderState{0, 1, 0};  // currently following node 0
  const auto move = protocol.onRound(builder.build(1, states));
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->root, 1u);  // own ID beats the neighbor's offer
  EXPECT_EQ(move->dist, 0u);
}

TEST(LeaderTreeRules, CapDrainsFarOffers) {
  const Graph g = graph::path(2);
  const auto ids = IdAssignment::identity(2);
  ViewBuilder<LeaderState> builder(g, ids);
  const LeaderTreeProtocol protocol(/*cap=*/2);
  std::vector<LeaderState> states(2);
  states[0] = LeaderState{0, 5, 1};    // wrong dist/parent, forces a move
  states[1] = LeaderState{999, 1, 0};  // fake root at distance 1; +1 == cap
  const auto move = protocol.onRound(builder.build(0, states));
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->root, 0u);  // fake offer rejected, self-candidacy wins
  EXPECT_EQ(move->dist, 0u);
}

TEST(LeaderTreeConvergence, CleanStartElectsMaxAcrossFamilies) {
  graph::Rng rng(111);
  const std::vector<Graph> graphs{
      graph::path(20),   graph::cycle(21), graph::star(15),
      graph::grid(4, 5), graph::connectedErdosRenyi(25, 0.15, rng)};
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const auto cap = static_cast<std::uint32_t>(g.order());
    for (int order = 0; order < 3; ++order) {
      graph::Rng idRng(order + 7);
      const IdAssignment ids =
          order == 0 ? IdAssignment::identity(g.order())
          : order == 1 ? IdAssignment::reversed(g.order())
                       : IdAssignment::randomSparse(g.order(), idRng);
      const LeaderTreeProtocol protocol(cap);
      SyncRunner<LeaderState> runner(protocol, g, ids);
      auto states = runner.initialStates();
      const auto result = runner.run(states, 3 * g.order());
      ASSERT_TRUE(result.stabilized) << "graph " << i << " order " << order;
      EXPECT_TRUE(isLeaderTree(g, ids, states))
          << "graph " << i << " order " << order;
    }
  }
}

TEST(LeaderTreeConvergence, FakeRootsAreFlushed) {
  // Every node starts claiming a random 64-bit root — essentially all fake.
  graph::Rng rng(113);
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = graph::connectedErdosRenyi(24, 0.15, rng);
    const auto cap = static_cast<std::uint32_t>(g.order());
    const auto ids = IdAssignment::identity(g.order());
    const LeaderTreeProtocol protocol(cap);
    auto states =
        engine::randomConfiguration<LeaderState>(g, rng, randomLeaderState);
    SyncRunner<LeaderState> runner(protocol, g, ids);
    const auto result = runner.run(states, 3 * g.order());
    ASSERT_TRUE(result.stabilized) << "trial " << trial;
    EXPECT_LE(result.rounds, 2 * g.order() + 2) << "trial " << trial;
    EXPECT_TRUE(isLeaderTree(g, ids, states)) << "trial " << trial;
  }
}

TEST(LeaderTreeConvergence, EachComponentElectsItsOwnLeader) {
  Graph g(7);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(3, 4);
  g.addEdge(5, 6);
  const auto ids = IdAssignment::identity(7);
  const LeaderTreeProtocol protocol(7);
  SyncRunner<LeaderState> runner(protocol, g, ids);
  auto states = runner.initialStates();
  ASSERT_TRUE(runner.run(states, 30).stabilized);
  EXPECT_TRUE(isLeaderTree(g, ids, states));
  EXPECT_EQ(states[0].root, 2u);
  EXPECT_EQ(states[3].root, 4u);
  EXPECT_EQ(states[6].root, 6u);
}

TEST(LeaderTreeConvergence, LeaderLossTriggersReElection) {
  // Stabilize, then "kill" the leader by isolating it: the rest must elect
  // the runner-up.
  Graph g = graph::complete(6);
  const auto ids = IdAssignment::identity(6);
  const LeaderTreeProtocol protocol(6);
  SyncRunner<LeaderState> runner(protocol, g, ids);
  auto states = runner.initialStates();
  ASSERT_TRUE(runner.run(states, 20).stabilized);
  EXPECT_EQ(states[0].root, 5u);

  for (graph::Vertex v = 0; v < 5; ++v) g.removeEdge(v, 5);
  SyncRunner<LeaderState> rerun(protocol, g, ids);
  ASSERT_TRUE(rerun.run(states, 30).stabilized);
  EXPECT_TRUE(isLeaderTree(g, ids, states));
  EXPECT_EQ(states[0].root, 4u);  // runner-up takes over
  EXPECT_EQ(states[5].root, 5u);  // the isolated ex-leader leads itself
}

// isLeaderTree checks every component in one pass over the graph: 10^5
// isolated vertices (each its own leader) plus a small tree take one BFS,
// not one per component.
TEST(LeaderTreeVerifier, ManyComponentsTakeOnePass) {
  constexpr graph::Vertex kIsolated = 100000;
  const graph::Vertex t = kIsolated;  // the tree's vertices are t .. t + 5
  // t+5 leads; t+3 and t+4 hang off it, t+0 and t+1 off t+3, t+2 off t+4.
  const std::vector<graph::Edge> edges = {
      {t + 3, t + 5}, {t + 4, t + 5}, {t + 1, t + 3},
      {t + 0, t + 3}, {t + 2, t + 4}};
  const Graph g = Graph::fromEdges(kIsolated + 6, edges);
  const auto ids = IdAssignment::identity(g.order());
  std::vector<LeaderState> states(g.order());
  for (graph::Vertex v = 0; v < kIsolated; ++v) {
    states[v] = LeaderState{ids.idOf(v), 0, graph::kNoVertex};
  }
  const graph::Id root = ids.idOf(t + 5);
  states[t + 5] = LeaderState{root, 0, graph::kNoVertex};
  states[t + 3] = LeaderState{root, 1, t + 5};
  states[t + 4] = LeaderState{root, 1, t + 5};
  states[t + 0] = LeaderState{root, 2, t + 3};
  states[t + 1] = LeaderState{root, 2, t + 3};
  states[t + 2] = LeaderState{root, 2, t + 4};
  EXPECT_TRUE(isLeaderTree(g, ids, states));

  auto wrongParent = states;
  wrongParent[t + 1].parent = t + 4;
  EXPECT_FALSE(isLeaderTree(g, ids, wrongParent));
  auto wrongRoot = states;
  wrongRoot[kIsolated / 2].root = root;
  EXPECT_FALSE(isLeaderTree(g, ids, wrongRoot));
}

TEST(LeaderTreeConvergence, AgreesWithBfsTreeRootedAtLeader) {
  // Differential: the (dist, parent) part of the leader tree must equal
  // what BfsTreeProtocol computes when told the leader explicitly.
  graph::Rng rng(117);
  const Graph g = graph::connectedRandomGeometric(22, 0.35, rng);
  const auto cap = static_cast<std::uint32_t>(g.order());
  const auto ids = IdAssignment::identity(g.order());

  const LeaderTreeProtocol leaderProtocol(cap);
  SyncRunner<LeaderState> leaderRunner(leaderProtocol, g, ids);
  auto leaderStates = leaderRunner.initialStates();
  ASSERT_TRUE(leaderRunner.run(leaderStates, 3 * g.order()).stabilized);

  const graph::Vertex leader = static_cast<graph::Vertex>(g.order() - 1);
  const core::BfsTreeProtocol bfs(ids.idOf(leader), cap);
  SyncRunner<TreeState> bfsRunner(bfs, g, ids);
  auto bfsStates = bfsRunner.initialStates();
  ASSERT_TRUE(bfsRunner.run(bfsStates, 3 * g.order()).stabilized);

  for (graph::Vertex v = 0; v < g.order(); ++v) {
    EXPECT_EQ(leaderStates[v].dist, bfsStates[v].dist) << "v=" << v;
    EXPECT_EQ(leaderStates[v].parent, bfsStates[v].parent) << "v=" << v;
  }
}

}  // namespace
}  // namespace selfstab::core

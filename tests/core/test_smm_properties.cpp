// Property-level reproduction of the paper's lemmas:
//   Lemma 1  — matched nodes stay matched (M_t ⊆ M_{t+1})
//   Lemma 7  — A¹ and PA are empty from round 1 on
//   Lemma 10 — while moves occur, |M| grows by >= 2 every 2 rounds
// plus exhaustive verification of Theorem 1 over the *entire* configuration
// space of small graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/node_types.hpp"
#include "analysis/verifiers.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"
#include "../support/small_graphs.hpp"

namespace selfstab::core {
namespace {

using analysis::matchedEdges;
using analysis::NodeType;
using analysis::TransitionCensus;
using engine::SyncRunner;
using graph::Graph;
using graph::IdAssignment;

// Set of matched (unordered) pairs in a configuration.
std::set<graph::Edge> matchedSet(const Graph& g,
                                 const std::vector<PointerState>& states) {
  const auto edges = matchedEdges(g, states);
  return {edges.begin(), edges.end()};
}

TEST(SmmLemmas, MatchedStaysMatchedAndGrowthHolds) {
  graph::Rng rng(21);
  const SmmProtocol smm = smmPaper();
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = graph::connectedErdosRenyi(26, 0.12, rng);
    const auto ids = IdAssignment::identity(g.order());
    auto states = engine::randomConfiguration<PointerState>(
        g, rng, randomPointerState);
    SyncRunner<PointerState> runner(smm, g, ids);

    std::vector<std::size_t> matchedCounts;  // |M_t| in nodes (2 per edge)
    std::set<graph::Edge> prevMatched = matchedSet(g, states);
    matchedCounts.push_back(prevMatched.size() * 2);

    const auto result = runner.run(
        states, g.order() + 2,
        [&](std::size_t, const std::vector<PointerState>& before,
            const std::vector<PointerState>& after, std::size_t) {
          const auto beforeSet = matchedSet(g, before);
          const auto afterSet = matchedSet(g, after);
          // Lemma 1: every matched pair survives.
          EXPECT_TRUE(std::includes(afterSet.begin(), afterSet.end(),
                                    beforeSet.begin(), beforeSet.end()));
          matchedCounts.push_back(afterSet.size() * 2);
        });
    ASSERT_TRUE(result.stabilized);

    // Lemma 10: for t >= 1, if a move happens at t+1 then
    // |M_{t+2}| >= |M_t| + 2. Equivalently, among counts m_1.. (the last
    // entry is the post-fixpoint count) every window of 2 productive rounds
    // gains >= 2 nodes. result.rounds is the number of productive rounds.
    // Productive rounds have indices 0..rounds-1, so "a move is made at
    // time t+1" holds exactly when t+2 <= result.rounds.
    for (std::size_t t = 1; t + 2 < matchedCounts.size(); ++t) {
      if (t + 2 <= result.rounds) {
        EXPECT_GE(matchedCounts[t + 2], matchedCounts[t] + 2)
            << "trial " << trial << " t=" << t;
      }
    }
  }
}

TEST(SmmLemmas, A1AndPaEmptyAfterRoundOne) {
  graph::Rng rng(23);
  const SmmProtocol smm = smmPaper();
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = graph::connectedErdosRenyi(22, 0.15, rng);
    const auto ids = IdAssignment::identity(g.order());
    auto states = engine::randomConfiguration<PointerState>(
        g, rng, randomPointerState);
    SyncRunner<PointerState> runner(smm, g, ids);
    const auto result = runner.run(
        states, g.order() + 2,
        [&](std::size_t, const std::vector<PointerState>&,
            const std::vector<PointerState>& after, std::size_t) {
          // Every post-round configuration has index >= 1.
          const auto types = analysis::classifyNodes(g, after);
          const auto counts = analysis::countTypes(types);
          EXPECT_EQ(counts.of(NodeType::A1), 0u);
          EXPECT_EQ(counts.of(NodeType::PA), 0u);
        });
    ASSERT_TRUE(result.stabilized);
  }
}

TEST(SmmLemmas, TransitionDiagramHoldsOnRandomRuns) {
  graph::Rng rng(25);
  const SmmProtocol smm = smmPaper();
  std::size_t transitions = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = graph::connectedErdosRenyi(22, 0.15, rng);
    const auto ids = IdAssignment::identity(g.order());
    auto states = engine::randomConfiguration<PointerState>(
        g, rng, randomPointerState);
    SyncRunner<PointerState> runner(smm, g, ids);
    TransitionCensus census(g);
    const auto result = runner.run(
        states, g.order() + 2,
        [&](std::size_t t, const std::vector<PointerState>& before,
            const std::vector<PointerState>& after, std::size_t) {
          census.record(t, before, after);
        });
    ASSERT_TRUE(result.stabilized);
    EXPECT_EQ(census.illegalCount(), 0u) << "trial " << trial;
    EXPECT_EQ(census.lateA1PaCount(), 0u) << "trial " << trial;
    transitions += census.transitionsRecorded();
  }
  EXPECT_GT(transitions, 0u);
}

// Exhaustive Theorem 1 check: every configuration of every small instance.
class SmmExhaustive : public ::testing::TestWithParam<testing::SmallGraph> {};

TEST_P(SmmExhaustive, EveryConfigurationStabilizesWithinBound) {
  SCOPED_TRACE(GetParam().family);
  const Graph g = GetParam().build();
  const auto ids = IdAssignment::identity(g.order());
  const SmmProtocol smm = smmPaper();

  // Candidate states per vertex: Λ plus each neighbor.
  std::vector<std::vector<PointerState>> candidates(g.order());
  for (graph::Vertex v = 0; v < g.order(); ++v) {
    candidates[v].push_back(PointerState{});
    for (const graph::Vertex w : g.neighbors(v)) {
      candidates[v].push_back(PointerState{w});
    }
  }

  std::size_t configs = 0;
  std::size_t worstRounds = 0;
  engine::enumerateConfigurations(
      candidates, [&](const std::vector<PointerState>& start) {
        SyncRunner<PointerState> runner(smm, g, ids);
        auto states = start;
        const auto result = runner.run(states, g.order() + 2);
        ASSERT_TRUE(result.stabilized);
        ASSERT_LE(result.rounds, g.order() + 1);
        ASSERT_TRUE(analysis::checkMatchingFixpoint(g, states).ok());
        worstRounds = std::max(worstRounds, result.rounds);
        ++configs;
      });
  EXPECT_GT(configs, 0u);
  // Sanity: some configuration actually needs work.
  EXPECT_GE(worstRounds, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    SmallGraphs, SmmExhaustive,
    ::testing::Values(
        testing::SmallGraph::of("path", graph::path(4)),
        testing::SmallGraph::of("path", graph::path(5)),
        testing::SmallGraph::of("cycle", graph::cycle(4)),
        testing::SmallGraph::of("cycle", graph::cycle(5)),
        testing::SmallGraph::of("cycle", graph::cycle(6)),
        testing::SmallGraph::of("complete", graph::complete(4)),
        testing::SmallGraph::of("star", graph::star(5)),
        testing::SmallGraph::of("bipartite", graph::completeBipartite(2, 3))),
    testing::smallGraphName);

TEST(SmmProperties, StabilizationRoundsCanReachOrderOfN) {
  // The n+1 bound is asymptotically tight: on a path with identity IDs and
  // all-null start, matches form left to right a couple of vertices per
  // two rounds. Check rounds grow linearly with n.
  const SmmProtocol smm = smmPaper();
  std::size_t rounds16 = 0;
  std::size_t rounds64 = 0;
  for (const std::size_t n : {16u, 64u}) {
    const Graph g = graph::path(n);
    const auto ids = IdAssignment::identity(n);
    SyncRunner<PointerState> runner(smm, g, ids);
    auto states = runner.initialStates();
    const auto result = runner.run(states, n + 2);
    ASSERT_TRUE(result.stabilized);
    (n == 16 ? rounds16 : rounds64) = result.rounds;
  }
  EXPECT_GT(rounds64, rounds16);
  EXPECT_GE(rounds64, 16u);  // linear-ish growth, not O(1) or O(log n)
}

}  // namespace
}  // namespace selfstab::core

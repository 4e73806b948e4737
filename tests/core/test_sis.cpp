// Algorithm SIS (paper Figure 4): rule-level checks, Theorem 2 convergence
// (at most n rounds), maximality at fixpoint, and exhaustive small-instance
// verification over the full 2^n configuration space.
#include "core/sis.hpp"

#include <gtest/gtest.h>

#include <set>

#include "analysis/verifiers.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "engine/view_builder.hpp"
#include "graph/generators.hpp"
#include "../support/small_graphs.hpp"

namespace selfstab::core {
namespace {

using analysis::isMaximalIndependentSet;
using analysis::membersOf;
using engine::SyncRunner;
using engine::ViewBuilder;
using graph::Graph;
using graph::IdAssignment;

TEST(SisRules, R1EntersWhenNoBiggerNeighborIn) {
  const Graph g = graph::path(3);
  const auto ids = IdAssignment::identity(3);
  ViewBuilder<BitState> builder(g, ids);
  const SisProtocol sis;
  std::vector<BitState> states(3);
  states[0].in = true;  // smaller neighbor in the set does not block node 1
  const auto move = sis.onRound(builder.build(1, states));
  ASSERT_TRUE(move.has_value());
  EXPECT_TRUE(move->in);
}

TEST(SisRules, R1BlockedByBiggerNeighborIn) {
  const Graph g = graph::path(3);
  const auto ids = IdAssignment::identity(3);
  ViewBuilder<BitState> builder(g, ids);
  const SisProtocol sis;
  std::vector<BitState> states(3);
  states[2].in = true;
  EXPECT_FALSE(sis.onRound(builder.build(1, states)).has_value());
}

TEST(SisRules, R2LeavesWhenBiggerNeighborIn) {
  const Graph g = graph::path(3);
  const auto ids = IdAssignment::identity(3);
  ViewBuilder<BitState> builder(g, ids);
  const SisProtocol sis;
  std::vector<BitState> states(3);
  states[1].in = true;
  states[2].in = true;
  const auto move = sis.onRound(builder.build(1, states));
  ASSERT_TRUE(move.has_value());
  EXPECT_FALSE(move->in);
}

TEST(SisRules, MemberWithOnlySmallerNeighborsInStays) {
  const Graph g = graph::path(3);
  const auto ids = IdAssignment::identity(3);
  ViewBuilder<BitState> builder(g, ids);
  const SisProtocol sis;
  std::vector<BitState> states(3);
  states[1].in = true;
  states[0].in = true;  // smaller; only node 0 should be privileged, not 1
  EXPECT_FALSE(sis.onRound(builder.build(1, states)).has_value());
  EXPECT_TRUE(sis.onRound(builder.build(0, states)).has_value());
}

TEST(SisRules, SmallerIdWinsSeniorityFlipsBehavior) {
  const Graph g = graph::path(2);
  const auto ids = IdAssignment::identity(2);
  ViewBuilder<BitState> builder(g, ids);
  const SisProtocol sis(Seniority::SmallerIdWins);
  std::vector<BitState> states(2);
  states[0].in = true;
  states[1].in = true;
  // Under SmallerIdWins, node 0 is "bigger": node 1 must leave, node 0 stays.
  EXPECT_FALSE(sis.onRound(builder.build(0, states)).has_value());
  const auto move = sis.onRound(builder.build(1, states));
  ASSERT_TRUE(move.has_value());
  EXPECT_FALSE(move->in);
}

TEST(SisConvergence, CleanStartMeetsTheoremBoundAcrossFamilies) {
  const SisProtocol sis;
  graph::Rng rng(31);
  const std::vector<Graph> graphs{
      graph::path(40),      graph::cycle(41),
      graph::complete(25),  graph::star(30),
      graph::grid(6, 7),    graph::binaryTree(31),
      graph::hypercube(5),  graph::connectedErdosRenyi(40, 0.1, rng),
      graph::connectedRandomGeometric(40, 0.3, rng)};
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    for (int order = 0; order < 3; ++order) {
      graph::Rng idRng(order);
      const IdAssignment ids =
          order == 0 ? IdAssignment::identity(g.order())
          : order == 1
              ? IdAssignment::reversed(g.order())
              : IdAssignment::randomPermutation(g.order(), idRng);
      SyncRunner<BitState> runner(sis, g, ids);
      auto states = runner.initialStates();
      const auto result = runner.run(states, g.order() + 1);
      EXPECT_TRUE(result.stabilized) << "graph " << i << " order " << order;
      EXPECT_LE(result.rounds, g.order()) << "graph " << i;
      EXPECT_TRUE(isMaximalIndependentSet(g, membersOf(states)))
          << "graph " << i << " order " << order;
    }
  }
}

TEST(SisConvergence, FromRandomConfigurations) {
  const SisProtocol sis;
  graph::Rng rng(33);
  for (int trial = 0; trial < 100; ++trial) {
    const Graph g = graph::connectedErdosRenyi(30, 0.12, rng);
    const auto ids = IdAssignment::identity(30);
    auto states =
        engine::randomConfiguration<BitState>(g, rng, randomBitState);
    SyncRunner<BitState> runner(sis, g, ids);
    const auto result = runner.run(states, g.order() + 1);
    EXPECT_TRUE(result.stabilized) << "trial " << trial;
    EXPECT_LE(result.rounds, g.order()) << "trial " << trial;
    EXPECT_TRUE(isMaximalIndependentSet(g, membersOf(states)))
        << "trial " << trial;
  }
}

class SisExhaustive : public ::testing::TestWithParam<testing::SmallGraph> {};

TEST_P(SisExhaustive, EveryConfigurationStabilizesToMis) {
  SCOPED_TRACE(GetParam().family);
  const Graph g = GetParam().build();
  const auto ids = IdAssignment::identity(g.order());
  const SisProtocol sis;
  std::vector<std::vector<BitState>> candidates(
      g.order(), {BitState{false}, BitState{true}});
  std::size_t configs = 0;
  engine::enumerateConfigurations(
      candidates, [&](const std::vector<BitState>& start) {
        SyncRunner<BitState> runner(sis, g, ids);
        auto states = start;
        const auto result = runner.run(states, g.order() + 1);
        ASSERT_TRUE(result.stabilized);
        ASSERT_LE(result.rounds, g.order());
        ASSERT_TRUE(isMaximalIndependentSet(g, membersOf(states)));
        ++configs;
      });
  EXPECT_EQ(configs, std::size_t{1} << g.order());
}

INSTANTIATE_TEST_SUITE_P(
    SmallGraphs, SisExhaustive,
    ::testing::Values(
        testing::SmallGraph::of("path", graph::path(6)),
        testing::SmallGraph::of("cycle", graph::cycle(6)),
        testing::SmallGraph::of("cycle", graph::cycle(7)),
        testing::SmallGraph::of("complete", graph::complete(5)),
        testing::SmallGraph::of("star", graph::star(6)),
        testing::SmallGraph::of("bipartite", graph::completeBipartite(3, 3)),
        testing::SmallGraph::of("grid", graph::grid(2, 4)),
        testing::SmallGraph::of("tree", graph::binaryTree(7))),
    testing::smallGraphName);

TEST(SisProperties, LargestNodeAlwaysEndsInSet) {
  graph::Rng rng(37);
  const SisProtocol sis;
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = graph::connectedErdosRenyi(20, 0.2, rng);
    const auto ids = IdAssignment::identity(20);
    auto states =
        engine::randomConfiguration<BitState>(g, rng, randomBitState);
    SyncRunner<BitState> runner(sis, g, ids);
    ASSERT_TRUE(runner.run(states, 30).stabilized);
    EXPECT_TRUE(states[19].in);  // vertex with the globally largest ID
  }
}

TEST(SisProperties, FixedPrefixNeverFlipsBack) {
  // Once the set of "decided" nodes (largest ID downwards) stabilizes, it
  // stays; check monotone stability of the largest node from round 1.
  const Graph g = graph::complete(12);
  const auto ids = IdAssignment::identity(12);
  const SisProtocol sis;
  SyncRunner<BitState> runner(sis, g, ids);
  auto states = runner.initialStates();
  bool largestSettled = false;
  const auto result = runner.run(
      states, 13,
      [&](std::size_t round, const std::vector<BitState>&,
          const std::vector<BitState>& after, std::size_t) {
        if (round >= 1) {
          EXPECT_TRUE(after[11].in);
          largestSettled = true;
        }
        if (round == 0) {
          EXPECT_TRUE(after[11].in);
        }
      });
  ASSERT_TRUE(result.stabilized);
  // On K_12 from all-zero: round 0 everyone enters, round 1 everyone but the
  // largest leaves, then quiet — exactly two productive rounds.
  EXPECT_LE(result.rounds, 2u);
  (void)largestSettled;
}

// The livelock certifier hashes whole configurations by folding
// hashValue(BitState) with hashCombine (engine/cycle_detection.hpp). A
// boolean state is maximally collision-prone under a weak per-state hash
// (e.g. 0/1 would cancel under xor-folds), so assert the two values are
// distinct, nonzero, and that the fold separates ALL 2^12 configurations
// of a 12-node vector — exhaustive collision-freedom at certifier scale.
TEST(SisState, HashValueSeparatesAllSmallConfigurations) {
  EXPECT_NE(hashValue(BitState{true}), 0u);
  EXPECT_NE(hashValue(BitState{false}), 0u);
  EXPECT_NE(hashValue(BitState{true}), hashValue(BitState{false}));

  const auto hashConfig = [](const std::vector<BitState>& config) {
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    for (const BitState& s : config) h = hashCombine(h, hashValue(s));
    return h;
  };

  constexpr std::size_t kBits = 12;
  std::set<std::uint64_t> seen;
  for (std::uint32_t mask = 0; mask < (1u << kBits); ++mask) {
    std::vector<BitState> config(kBits);
    for (std::size_t b = 0; b < kBits; ++b) {
      config[b].in = ((mask >> b) & 1u) != 0;
    }
    const auto [it, inserted] = seen.insert(hashConfig(config));
    ASSERT_TRUE(inserted) << "configuration hash collision at mask " << mask;
  }
}

TEST(SisProperties, IndependenceCanBreakTransientlyButRepairs) {
  // Start with everything in the set: adjacent members coexist transiently,
  // then R2 clears them in waves.
  const Graph g = graph::path(10);
  const auto ids = IdAssignment::identity(10);
  const SisProtocol sis;
  std::vector<BitState> states(10, BitState{true});
  SyncRunner<BitState> runner(sis, g, ids);
  const auto result = runner.run(states, 11);
  ASSERT_TRUE(result.stabilized);
  EXPECT_TRUE(isMaximalIndependentSet(g, membersOf(states)));
}

}  // namespace
}  // namespace selfstab::core

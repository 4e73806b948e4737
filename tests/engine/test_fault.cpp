#include "engine/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "../support/test_protocols.hpp"
#include "core/aggregation.hpp"
#include "core/bfs_tree.hpp"
#include "core/coloring.hpp"
#include "core/dominating_set.hpp"
#include "core/leader_tree.hpp"
#include "core/matching_state.hpp"
#include "core/sis.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/geometry.hpp"

namespace selfstab::engine {
namespace {

using core::PointerState;
using core::randomPointerState;
using graph::Graph;
using testing::ValueState;

TEST(RandomConfiguration, SamplesEveryVertex) {
  const Graph g = graph::cycle(10);
  Rng rng(1);
  const auto states = randomConfiguration<PointerState>(
      g, rng, [](graph::Vertex v, const Graph& gg, Rng& r) {
        return randomPointerState(v, gg, r);
      });
  ASSERT_EQ(states.size(), 10u);
  for (graph::Vertex v = 0; v < 10; ++v) {
    const PointerState& s = states[v];
    EXPECT_TRUE(s.isNull() || g.hasEdge(v, s.ptr));
  }
}

TEST(CorruptConfiguration, FractionZeroChangesNothing) {
  const Graph g = graph::path(8);
  Rng rng(2);
  std::vector<ValueState> states(8, ValueState{7});
  const auto original = states;
  const std::size_t corrupted = corruptConfiguration(
      states, g, rng, 0.0,
      [](graph::Vertex, const Graph&, Rng& r) { return ValueState{r.next()}; });
  EXPECT_EQ(corrupted, 0u);
  EXPECT_EQ(states, original);
}

TEST(CorruptConfiguration, FractionOneHitsEveryone) {
  const Graph g = graph::path(8);
  Rng rng(3);
  std::vector<ValueState> states(8, ValueState{7});
  const std::size_t corrupted = corruptConfiguration(
      states, g, rng, 1.0,
      [](graph::Vertex, const Graph&, Rng& r) { return ValueState{r.next()}; });
  EXPECT_EQ(corrupted, 8u);
}

// A state drawn on a space-ordered graph, renumbered to external numbers,
// is the state drawn on the point-ordered build at the same point, for
// every sampler, with the same RNG draws.
template <typename State, typename Sampler>
void expectRenumberedDraws(Sampler sampler) {
  Rng pointsRng(77);
  const std::vector<graph::Point> pts = graph::randomPoints(3000, pointsRng);
  const Graph points = graph::unitDiskGraph(pts, 0.04);
  const Graph space =
      graph::unitDiskGraph(pts, 0.04, graph::VertexOrder::Space);
  ASSERT_TRUE(space.labelled());
  const auto external = [&](State s) {
    if constexpr (kHoldsVertices<State>) {
      mapVertices(s, [&](graph::Vertex& x) {
        if (x < space.order()) x = space.labelOf(x);
      });
    }
    return s;
  };
  Rng a(5);
  Rng b(5);
  auto drawn = randomConfiguration<State>(space, a, sampler);
  auto expected = randomConfiguration<State>(points, b, sampler);
  for (graph::Vertex v = 0; v < space.order(); ++v) {
    ASSERT_TRUE(external(drawn[v]) == expected[space.labelOf(v)]) << v;
  }
  EXPECT_EQ(corruptConfiguration(drawn, space, a, 0.3, sampler),
            corruptConfiguration(expected, points, b, 0.3, sampler));
  for (graph::Vertex v = 0; v < space.order(); ++v) {
    ASSERT_TRUE(external(drawn[v]) == expected[space.labelOf(v)]) << v;
  }
  EXPECT_EQ(a.next(), b.next());
}

TEST(RandomConfiguration, LabelledGraphDrawsTheRenumberedConfiguration) {
  expectRenumberedDraws<PointerState>(core::randomPointerState);
  expectRenumberedDraws<PointerState>(core::wildPointerState);
  expectRenumberedDraws<core::TreeState>(core::randomTreeState);
  expectRenumberedDraws<core::LeaderState>(core::randomLeaderState);
  expectRenumberedDraws<core::AggregateState>(core::randomAggregateState);
  expectRenumberedDraws<core::DomState>(core::randomDomState);
  expectRenumberedDraws<core::ColorState>(core::randomColorState);
  expectRenumberedDraws<core::BitState>(core::randomBitState);
}

// Random starts and fraction corruption draw the same states inline and
// on the team, in either storage order: every node draws from its own
// keyed stream.
template <typename State, typename Sampler>
void expectSameAtEveryWidth(const Graph& g, Sampler sampler) {
  const auto expected = detail::randomConfiguration<State>(g, 9, sampler, 1);
  const std::vector<graph::Vertex> byLabel = frameFor<State>(g);
  auto corrupted = expected;
  const auto hit = detail::corruptFraction(corrupted, g, 10, 0.3, sampler,
                                           byLabel, 1);
  ASSERT_FALSE(hit.empty());
  ASSERT_TRUE(std::is_sorted(hit.begin(), hit.end()));
  for (const std::size_t width : {2U, 3U, 4U}) {
    EXPECT_TRUE(detail::randomConfiguration<State>(g, 9, sampler, width) ==
                expected)
        << "width " << width;
    auto states = expected;
    EXPECT_EQ(detail::corruptFraction(states, g, 10, 0.3, sampler, byLabel,
                                      width),
              hit)
        << "width " << width;
    EXPECT_TRUE(states == corrupted) << "width " << width;
  }
}

TEST(RandomConfiguration, TeamWidthMatchesInline) {
  Rng pointsRng(78);
  const std::vector<graph::Point> pts = graph::randomPoints(20000, pointsRng);
  for (const auto order : {graph::VertexOrder::Points,
                           graph::VertexOrder::Space}) {
    const Graph g = graph::unitDiskGraph(pts, 0.015, order);
    ASSERT_EQ(g.labelled(), order == graph::VertexOrder::Space);
    expectSameAtEveryWidth<PointerState>(g, core::randomPointerState);
    expectSameAtEveryWidth<core::TreeState>(g, core::randomTreeState);
    expectSameAtEveryWidth<core::BitState>(g, core::randomBitState);
  }
}

// The keyed pointer pick is uniform over N(v) ∪ {Λ}: over many keys, each
// of the degree + 1 outcomes turns up about equally often (Pearson's
// chi-squared, against the 99.9th percentile of its distribution).
TEST(RandomPointerState, KeyedPickIsUniform) {
  constexpr std::size_t kDraws = 60000;
  // (degree, the 0.999 quantile of chi-squared with `degree` degrees of
  // freedom: degree + 1 outcomes).
  const std::vector<std::pair<graph::Vertex, double>> cases = {
      {1, 10.83}, {2, 13.82}, {5, 20.52}, {16, 39.25}, {40, 73.40}};
  for (const auto& [degree, critical] : cases) {
    // A star whose centre 0 has `degree` leaves, labelled out of order.
    std::vector<graph::Edge> edges;
    for (graph::Vertex w = 1; w <= degree; ++w) edges.push_back({0, w});
    const Graph plain = Graph::fromEdges(degree + 1, edges);
    Graph::Labels labels(degree + 1);
    for (graph::Vertex x = 0; x <= degree; ++x) labels[x] = degree - x;
    Graph::Offsets offsets;
    Graph::Targets targets;
    offsets.push_back(0);
    for (graph::Vertex v = 0; v <= degree; ++v) {
      for (const graph::Vertex w : plain.neighbors(v)) targets.push_back(w);
      offsets.push_back(targets.size());
    }
    const Graph g = Graph::fromCsr(std::move(offsets), std::move(targets),
                                   std::move(labels));
    // The leaves' labels are 0 .. degree - 1 (the centre's is degree), so
    // seen[x] counts picks of the leaf labelled x, and seen[degree] Λ.
    std::vector<std::size_t> seen(degree + 1, 0);
    for (std::size_t key = 0; key < kDraws; ++key) {
      Rng rng = nodeRng(key, g, 0);
      const PointerState s = core::randomPointerState(0, g, rng);
      ASSERT_TRUE(s.isNull() || s.ptr < degree) << s.ptr;
      ++seen[s.isNull() ? degree : s.ptr];
    }
    const double expected =
        static_cast<double>(kDraws) / static_cast<double>(degree + 1);
    double chi2 = 0.0;
    for (const std::size_t count : seen) {
      const double d = static_cast<double>(count) - expected;
      chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, critical) << "degree " << degree;
  }
}

TEST(EnumerateConfigurations, VisitsFullProduct) {
  std::vector<std::vector<int>> candidates{{0, 1}, {0, 1, 2}, {5}};
  EXPECT_EQ(configurationCount(candidates), 6u);
  std::set<std::vector<int>> seen;
  enumerateConfigurations(candidates, [&](const std::vector<int>& config) {
    seen.insert(config);
  });
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_TRUE(seen.count({1, 2, 5}));
  EXPECT_TRUE(seen.count({0, 0, 5}));
}

TEST(EnumerateConfigurations, EmptyCandidateListProducesNothing) {
  std::vector<std::vector<int>> candidates{{0, 1}, {}};
  int calls = 0;
  enumerateConfigurations(candidates,
                          [&](const std::vector<int>&) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(PerturbTopology, TogglesRequestedCount) {
  Graph g = graph::complete(6);
  Rng rng(4);
  const std::size_t before = g.size();
  const std::size_t applied = perturbTopology(g, rng, 5, false);
  EXPECT_EQ(applied, 5u);
  EXPECT_NE(g.size(), before);  // complete graph: all toggles are removals
}

TEST(PerturbTopology, KeepConnectedPreservesConnectivity) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = graph::randomTree(12, rng);  // trees: every removal disconnects
    perturbTopology(g, rng, 10, true);
    EXPECT_TRUE(graph::isConnected(g));
  }
}

TEST(PerturbTopology, TinyGraphIsNoop) {
  Graph g(1);
  Rng rng(6);
  EXPECT_EQ(perturbTopology(g, rng, 5, true), 0u);
}

}  // namespace
}  // namespace selfstab::engine

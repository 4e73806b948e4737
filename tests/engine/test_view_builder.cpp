#include "engine/view_builder.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../support/test_protocols.hpp"
#include "graph/generators.hpp"

namespace selfstab::engine {
namespace {

using graph::Graph;
using graph::IdAssignment;
using testing::ValueState;

TEST(ViewBuilder, ViewCarriesSelfAndNeighbors) {
  const Graph g = graph::star(4);
  const auto ids = IdAssignment::reversed(4);  // vertex v has ID 3-v
  ViewBuilder<ValueState> builder(g, ids);
  const std::vector<ValueState> states{{10}, {11}, {12}, {13}};

  const auto view = builder.build(0, states, /*roundKey=*/55);
  EXPECT_EQ(view.self, 0u);
  EXPECT_EQ(view.selfId, 3u);
  EXPECT_EQ(view.state().value, 10u);
  EXPECT_EQ(view.roundKey, 55u);
  ASSERT_EQ(view.neighbors.size(), 3u);
  // Neighbors in increasing vertex order, carrying their IDs and states.
  EXPECT_EQ(view.neighbors[0].vertex, 1u);
  EXPECT_EQ(view.neighbors[0].id, 2u);
  EXPECT_EQ(view.neighbors[0].state->value, 11u);
  EXPECT_EQ(view.neighbors[2].vertex, 3u);
  EXPECT_EQ(view.neighbors[2].id, 0u);
}

TEST(ViewBuilder, LeafSeesOnlyTheCenter) {
  const Graph g = graph::star(4);
  const auto ids = IdAssignment::identity(4);
  ViewBuilder<ValueState> builder(g, ids);
  const std::vector<ValueState> states(4);
  const auto view = builder.build(2, states);
  ASSERT_EQ(view.neighbors.size(), 1u);
  EXPECT_EQ(view.neighbors[0].vertex, 0u);
}

TEST(ViewBuilder, FindLocatesNeighborsOnly) {
  const Graph g = graph::path(3);
  const auto ids = IdAssignment::identity(3);
  ViewBuilder<ValueState> builder(g, ids);
  const std::vector<ValueState> states(3);
  const auto view = builder.build(1, states);
  EXPECT_NE(view.find(0), nullptr);
  EXPECT_NE(view.find(2), nullptr);
  EXPECT_EQ(view.find(1), nullptr);   // self is not a neighbor
  EXPECT_EQ(view.find(99), nullptr);  // nonexistent
}

TEST(ViewBuilder, IsolatedVertexHasEmptyView) {
  const Graph g(2);
  const auto ids = IdAssignment::identity(2);
  ViewBuilder<ValueState> builder(g, ids);
  const std::vector<ValueState> states(2);
  const auto view = builder.build(0, states);
  EXPECT_TRUE(view.neighbors.empty());
}

TEST(ViewBuilder, ReflectsGraphMutation) {
  Graph g = graph::path(3);
  const auto ids = IdAssignment::identity(3);
  ViewBuilder<ValueState> builder(g, ids);
  const std::vector<ValueState> states(3);
  EXPECT_EQ(builder.build(0, states).neighbors.size(), 1u);
  g.addEdge(0, 2);
  EXPECT_EQ(builder.build(0, states).neighbors.size(), 2u);
  g.removeEdge(0, 1);
  EXPECT_EQ(builder.build(0, states).neighbors.size(), 1u);
  EXPECT_EQ(builder.build(0, states).neighbors[0].vertex, 2u);
}

// Regression for the LocalView::find rewrite (linear scan -> lower_bound):
// on every vertex of a random graph, find() must agree exactly with the
// adjacency — hit every true neighbor, miss self and every non-neighbor,
// and return the entry carrying the right ID and state pointer.
TEST(ViewBuilder, FindMatchesAdjacencyExhaustively) {
  graph::Rng rng(811);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = graph::connectedErdosRenyi(30, 0.2, rng);
    graph::Rng idRng(trial);
    const auto ids = IdAssignment::randomSparse(g.order(), idRng);
    ViewBuilder<ValueState> builder(g, ids);
    std::vector<ValueState> states(g.order());
    for (graph::Vertex v = 0; v < g.order(); ++v) {
      states[v].value = v;
    }
    for (graph::Vertex v = 0; v < g.order(); ++v) {
      const auto view = builder.build(v, states);
      for (graph::Vertex w = 0; w < g.order(); ++w) {
        const auto* entry = view.find(w);
        if (g.hasEdge(v, w)) {
          ASSERT_NE(entry, nullptr) << "v=" << v << " w=" << w;
          EXPECT_EQ(entry->vertex, w);
          EXPECT_EQ(entry->id, ids.idOf(w));
          EXPECT_EQ(entry->state->value, w);
        } else {
          ASSERT_EQ(entry, nullptr) << "v=" << v << " w=" << w;
        }
      }
      // Out-of-range probes (binary search must not walk off the span).
      EXPECT_EQ(view.find(graph::kNoVertex), nullptr);
      EXPECT_EQ(view.find(static_cast<graph::Vertex>(g.order() + 5)), nullptr);
    }
  }
}

// Targeted binary-search boundaries for LocalView::find: the empty span,
// the first and last entries, probes that land in gaps between entries,
// and probes beyond both ends.
TEST(ViewBuilder, FindBinarySearchEdgeCases) {
  Graph g(12);
  g.addEdge(4, 0);
  g.addEdge(4, 5);
  g.addEdge(4, 9);
  const auto ids = IdAssignment::identity(12);
  ViewBuilder<ValueState> builder(g, ids);
  const std::vector<ValueState> states(12);

  const auto empty = builder.build(11, states);  // isolated: empty span
  EXPECT_EQ(empty.find(0), nullptr);
  EXPECT_EQ(empty.find(11), nullptr);

  const auto view = builder.build(4, states);  // neighbors {0, 5, 9}
  ASSERT_EQ(view.neighbors.size(), 3u);
  EXPECT_NE(view.find(0), nullptr);  // first entry
  EXPECT_NE(view.find(5), nullptr);  // middle entry
  EXPECT_NE(view.find(9), nullptr);  // last entry
  EXPECT_EQ(view.find(1), nullptr);  // gap after first
  EXPECT_EQ(view.find(4), nullptr);  // self, in a gap
  EXPECT_EQ(view.find(6), nullptr);  // gap before last
  EXPECT_EQ(view.find(10), nullptr); // past the last entry
  EXPECT_EQ(view.find(graph::kNoVertex), nullptr);
}

// buildView reads the Graph and IdAssignment directly, so across arbitrary
// edits every view carries exactly the current neighbor slice with each
// neighbor's ID and state slot, and ViewBuilder (which calls it) agrees.
TEST(BuildView, ReadsGraphAndIdsAcrossEdits) {
  graph::Rng rng(813);
  Graph g = graph::connectedErdosRenyi(20, 0.15, rng);
  graph::Rng idRng(814);
  const auto ids = IdAssignment::randomSparse(g.order(), idRng);
  ViewBuilder<ValueState> builder(g, ids);
  const std::vector<ValueState> states(g.order());
  std::vector<NeighborRef<ValueState>> buffer;

  const auto check = [&] {
    for (graph::Vertex v = 0; v < g.order(); ++v) {
      const auto truth = g.neighbors(v);
      const auto view = buildView(g, ids, v, states, 5, buffer);
      EXPECT_EQ(view.self, v);
      EXPECT_EQ(view.selfId, ids.idOf(v));
      EXPECT_EQ(view.selfState, &states[v]);
      EXPECT_EQ(view.roundKey, 5U);
      ASSERT_EQ(view.neighbors.size(), truth.size()) << "v=" << v;
      const auto built = builder.build(v, states, 5);
      ASSERT_EQ(built.neighbors.size(), truth.size()) << "v=" << v;
      for (std::size_t i = 0; i < truth.size(); ++i) {
        EXPECT_EQ(view.neighbors[i].vertex, truth[i]) << "v=" << v;
        EXPECT_EQ(view.neighbors[i].id, ids.idOf(truth[i])) << "v=" << v;
        EXPECT_EQ(view.neighbors[i].state, &states[truth[i]]) << "v=" << v;
        EXPECT_EQ(built.neighbors[i].vertex, truth[i]) << "v=" << v;
        EXPECT_EQ(built.neighbors[i].id, ids.idOf(truth[i])) << "v=" << v;
      }
    }
  };

  check();
  for (int round = 0; round < 30; ++round) {
    const auto u = static_cast<graph::Vertex>(rng.below(g.order()));
    const auto w = static_cast<graph::Vertex>(rng.below(g.order()));
    if (u != w) g.toggleEdge(u, w);
    check();
  }
  g.clearEdges();
  check();
}

}  // namespace
}  // namespace selfstab::engine

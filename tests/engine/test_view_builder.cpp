#include "engine/view_builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "../support/test_protocols.hpp"
#include "engine/topology.hpp"
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

// The CSR mirror must equal Graph::neighbors (buildView's IDs equal idOf),
// revalidate across arbitrary mutation sequences (Graph::version bumps),
// bump its generation exactly when it rebuilds, and give buildView the
// same views ViewBuilder reads off the Graph.
TEST(CsrTopology, MirrorsGraphAcrossMutations) {
  graph::Rng rng(813);
  Graph g = graph::connectedErdosRenyi(20, 0.15, rng);
  graph::Rng idRng(814);
  const auto ids = IdAssignment::randomSparse(g.order(), idRng);
  CsrTopology topo(g, ids);
  ViewBuilder<ValueState> builder(g, ids);
  const std::vector<ValueState> states(g.order());
  std::vector<NeighborRef<ValueState>> buffer;
  EXPECT_EQ(topo.generation(), 0u);  // nothing built before a refresh

  const auto check = [&] {
    topo.refresh();
    for (graph::Vertex v = 0; v < g.order(); ++v) {
      const auto mirrored = topo.neighbors(v);
      const auto truth = g.neighbors(v);
      ASSERT_EQ(mirrored.size(), truth.size()) << "v=" << v;
      ASSERT_EQ(topo.degree(v), truth.size()) << "v=" << v;
      EXPECT_EQ(topo.idOf(v), ids.idOf(v)) << "v=" << v;
      for (std::size_t i = 0; i < truth.size(); ++i) {
        EXPECT_EQ(mirrored[i], truth[i]) << "v=" << v << " slot " << i;
      }
      const auto fromCsr = buildView(topo, v, states, 5, buffer);
      const auto fromGraph = builder.build(v, states, 5);
      EXPECT_EQ(fromCsr.selfId, fromGraph.selfId);
      ASSERT_EQ(fromCsr.neighbors.size(), fromGraph.neighbors.size());
      for (std::size_t i = 0; i < truth.size(); ++i) {
        EXPECT_EQ(fromCsr.neighbors[i].vertex, fromGraph.neighbors[i].vertex);
        EXPECT_EQ(fromCsr.neighbors[i].id, ids.idOf(truth[i]))
            << "v=" << v << " slot " << i;
        EXPECT_EQ(fromCsr.neighbors[i].id, fromGraph.neighbors[i].id);
        EXPECT_EQ(fromCsr.neighbors[i].state, fromGraph.neighbors[i].state);
      }
    }
  };

  check();
  EXPECT_EQ(topo.generation(), 1u);
  topo.refresh();  // no mutation: no rebuild
  EXPECT_EQ(topo.generation(), 1u);
  for (int round = 0; round < 30; ++round) {
    const auto u = static_cast<graph::Vertex>(rng.below(g.order()));
    const auto w = static_cast<graph::Vertex>(rng.below(g.order()));
    const std::uint64_t before = topo.generation();
    if (u != w) g.toggleEdge(u, w);
    check();
    EXPECT_EQ(topo.generation(), before + (u != w ? 1 : 0));
  }
  g.clearEdges();
  check();
  EXPECT_TRUE(topo.mirrors(g, ids));
  const Graph copy = g;
  EXPECT_FALSE(topo.mirrors(copy, ids));
}

// A bulk-built Graph must drive the CSR exactly like the addEdge-built one:
// the same mirror on the first refresh, no rebuild without a mutation, and
// a rebuild after each successful edit (version() bumps) but not after a
// no-op one.
TEST(CsrTopology, RefreshesABulkBuiltGraphLikeAnAddEdgeBuiltOne) {
  graph::Rng rng(815);
  Graph built = graph::connectedErdosRenyi(30, 0.2, rng);
  std::vector<std::vector<graph::Vertex>> adj(built.order());
  for (graph::Vertex v = 0; v < built.order(); ++v) {
    adj[v].assign(built.neighbors(v).begin(), built.neighbors(v).end());
  }
  Graph bulk = Graph::fromSortedAdjacency(std::move(adj));
  const auto ids = IdAssignment::identity(built.order());
  CsrTopology fromBuilt(built, ids);
  CsrTopology fromBulk(bulk, ids);

  const auto check = [&] {
    fromBuilt.refresh();
    fromBulk.refresh();
    ASSERT_EQ(fromBulk.generation(), fromBuilt.generation());
    for (graph::Vertex v = 0; v < built.order(); ++v) {
      const auto a = fromBuilt.neighbors(v);
      const auto b = fromBulk.neighbors(v);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "v=" << v;
    }
  };
  check();
  EXPECT_EQ(fromBulk.generation(), 1U);
  check();
  EXPECT_EQ(fromBulk.generation(), 1U);
  for (int k = 0; k < 40; ++k) {
    const auto u = static_cast<graph::Vertex>(rng.below(built.order()));
    const auto w = static_cast<graph::Vertex>(rng.below(built.order()));
    ASSERT_EQ(bulk.toggleEdge(u, w), built.toggleEdge(u, w));
    check();
  }
  const graph::Edge e = bulk.edges().front();
  ASSERT_FALSE(bulk.addEdge(e.u, e.v));  // already present: no version bump
  ASSERT_FALSE(built.addEdge(e.u, e.v));
  const std::uint64_t before = fromBulk.generation();
  check();
  EXPECT_EQ(fromBulk.generation(), before);
}

}  // namespace
}  // namespace selfstab::engine

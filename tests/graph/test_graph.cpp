#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/rng.hpp"

namespace selfstab::graph {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.order(), 0u);
  EXPECT_EQ(g.size(), 0u);
}

TEST(Graph, EdgelessGraph) {
  Graph g(5);
  EXPECT_EQ(g.order(), 5u);
  EXPECT_EQ(g.size(), 0u);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Graph, AddEdgeBasics) {
  Graph g(4);
  EXPECT_TRUE(g.addEdge(0, 1));
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_TRUE(g.hasEdge(1, 0));
  EXPECT_EQ(g.size(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(Graph, AddDuplicateEdgeFails) {
  Graph g(3);
  EXPECT_TRUE(g.addEdge(1, 2));
  EXPECT_FALSE(g.addEdge(1, 2));
  EXPECT_FALSE(g.addEdge(2, 1));
  EXPECT_EQ(g.size(), 1u);
}

TEST(Graph, SelfLoopRejected) {
  Graph g(3);
  EXPECT_FALSE(g.addEdge(1, 1));
  EXPECT_EQ(g.size(), 0u);
  EXPECT_FALSE(g.hasEdge(1, 1));
}

TEST(Graph, RemoveEdge) {
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  EXPECT_TRUE(g.removeEdge(0, 1));
  EXPECT_FALSE(g.hasEdge(0, 1));
  EXPECT_EQ(g.size(), 1u);
  EXPECT_FALSE(g.removeEdge(0, 1));
}

TEST(Graph, NeighborsSorted) {
  Graph g(6);
  g.addEdge(3, 5);
  g.addEdge(3, 0);
  g.addEdge(3, 4);
  g.addEdge(3, 1);
  const auto nbrs = g.neighbors(3);
  const std::vector<Vertex> expected{0, 1, 4, 5};
  EXPECT_EQ(std::vector<Vertex>(nbrs.begin(), nbrs.end()), expected);
}

TEST(Graph, EdgesEnumeratedOnceNormalized) {
  Graph g(4);
  g.addEdge(2, 1);
  g.addEdge(3, 0);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (Edge{0, 3}));
  EXPECT_EQ(edges[1], (Edge{1, 2}));
}

TEST(Graph, ToggleEdge) {
  Graph g(3);
  EXPECT_TRUE(g.toggleEdge(0, 2));   // added
  EXPECT_TRUE(g.hasEdge(0, 2));
  EXPECT_FALSE(g.toggleEdge(0, 2));  // removed
  EXPECT_FALSE(g.hasEdge(0, 2));
  EXPECT_EQ(g.size(), 0u);
}

TEST(Graph, ClearEdges) {
  Graph g(4);
  g.addEdge(0, 1);
  g.addEdge(2, 3);
  g.clearEdges();
  EXPECT_EQ(g.size(), 0u);
  EXPECT_EQ(g.order(), 4u);
  EXPECT_FALSE(g.hasEdge(0, 1));
}

TEST(Graph, MinMaxDegree) {
  Graph g(4);
  g.addEdge(0, 1);
  g.addEdge(0, 2);
  g.addEdge(0, 3);
  EXPECT_EQ(g.maxDegree(), 3u);
  EXPECT_EQ(g.minDegree(), 1u);
}

TEST(Graph, HasEdgeOutOfRangeIsFalse) {
  Graph g(2);
  g.addEdge(0, 1);
  EXPECT_FALSE(g.hasEdge(0, 5));
  EXPECT_FALSE(g.hasEdge(7, 9));
}

TEST(Graph, EqualityComparesStructure) {
  Graph a(3);
  Graph b(3);
  a.addEdge(0, 1);
  EXPECT_NE(a, b);
  b.addEdge(0, 1);
  EXPECT_EQ(a, b);
}

// The bulk factory must give the graph addEdge would have built from the
// same edges, and that graph must behave identically under later edits.
TEST(Graph, FromSortedAdjacencyEqualsAddEdgeBuild) {
  Rng rng(42);
  const std::size_t n = 40;
  Graph built(n);
  for (int k = 0; k < 150; ++k) {
    built.addEdge(static_cast<Vertex>(rng.below(n)),
                  static_cast<Vertex>(rng.below(n)));
  }
  std::vector<std::vector<Vertex>> adj(n);
  for (Vertex v = 0; v < n; ++v) {
    adj[v].assign(built.neighbors(v).begin(), built.neighbors(v).end());
  }
  Graph bulk = Graph::fromSortedAdjacency(std::move(adj));

  const auto same = [&] {
    ASSERT_TRUE(bulk == built);
    ASSERT_EQ(bulk.order(), built.order());
    ASSERT_EQ(bulk.size(), built.size());
    ASSERT_EQ(bulk.version(), built.version());
    ASSERT_EQ(bulk.edges(), built.edges());
    for (Vertex u = 0; u < n; ++u) {
      ASSERT_EQ(bulk.degree(u), built.degree(u));
      for (Vertex v = 0; v < n; ++v) {
        ASSERT_EQ(bulk.hasEdge(u, v), built.hasEdge(u, v));
      }
    }
  };
  same();
  for (int k = 0; k < 200; ++k) {
    const auto u = static_cast<Vertex>(rng.below(n));
    const auto v = static_cast<Vertex>(rng.below(n));
    if (rng.chance(0.5)) {
      ASSERT_EQ(bulk.addEdge(u, v), built.addEdge(u, v));
    } else {
      ASSERT_EQ(bulk.removeEdge(u, v), built.removeEdge(u, v));
    }
    same();
  }
  bulk.clearEdges();
  built.clearEdges();
  same();
}

TEST(Graph, FromSortedAdjacencyOfEmptyListsIsEdgeless) {
  const Graph g = Graph::fromSortedAdjacency(std::vector<std::vector<Vertex>>(5));
  EXPECT_TRUE(g == Graph(5));
  EXPECT_EQ(g.size(), 0U);
  EXPECT_EQ(g.version(), 0U);
  EXPECT_EQ(Graph::fromSortedAdjacency({}).order(), 0U);
}

#ifndef NDEBUG
TEST(GraphDeathTest, FromSortedAdjacencyChecksItsInput) {
  using Lists = std::vector<std::vector<Vertex>>;
  EXPECT_DEATH(Graph::fromSortedAdjacency(Lists{{1}, {}}), "symmetric");
  EXPECT_DEATH(Graph::fromSortedAdjacency(Lists{{2, 1}, {0}, {0}}),
               "ascending");
  EXPECT_DEATH(Graph::fromSortedAdjacency(Lists{{0}}), "loop");
  EXPECT_DEATH(Graph::fromSortedAdjacency(Lists{{3}, {}}), "range");
}
#endif

TEST(MakeEdge, NormalizesOrder) {
  EXPECT_EQ(makeEdge(5, 2), (Edge{2, 5}));
  EXPECT_EQ(makeEdge(2, 5), (Edge{2, 5}));
}

}  // namespace
}  // namespace selfstab::graph

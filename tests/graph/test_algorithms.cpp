#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/generators.hpp"
#include "graph/geometry.hpp"

namespace selfstab::graph {
namespace {

TEST(BfsDistances, OnPath) {
  const Graph g = path(5);
  const auto dist = bfsDistances(g, 0);
  for (std::size_t v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(BfsDistances, UnreachableMarked) {
  Graph g(4);
  g.addEdge(0, 1);
  const auto dist = bfsDistances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(BfsDistances, SeveralSourcesGiveTheNearest) {
  // Path 0-1-2-3-4-5-6 with sources 0 and 5; vertex 7 is isolated.
  Graph g = path(7);
  g = Graph::fromEdges(8, g.edges());
  const std::vector<Vertex> sources = {5, 0};
  const auto dist = bfsDistances(g, sources);
  const std::vector<std::size_t> expected = {0, 1, 2, 2, 1, 0, 1,
                                             kUnreachable};
  EXPECT_EQ(dist, expected);
  for (Vertex v = 0; v < 8; ++v) {
    EXPECT_EQ(dist[v], std::min(bfsDistances(g, 0)[v], bfsDistances(g, 5)[v]));
  }
}

TEST(Connectivity, BasicCases) {
  EXPECT_TRUE(isConnected(Graph(0)));
  EXPECT_TRUE(isConnected(Graph(1)));
  EXPECT_FALSE(isConnected(Graph(2)));
  EXPECT_TRUE(isConnected(path(10)));
  EXPECT_TRUE(isConnected(cycle(10)));
}

// The union-find verdict against connectedComponents' BFS labels, at one
// worker (inline) and on pools of 2 and 4.
void expectVerdictMatchesComponents(const Graph& g) {
  const auto comp = connectedComponents(g);
  const bool want = std::all_of(comp.begin(), comp.end(),
                                [](std::size_t c) { return c == 0; });
  EXPECT_EQ(isConnected(g), want);
  for (const std::size_t workers : {1, 2, 4}) {
    EXPECT_EQ(detail::isConnected(g, workers), want)
        << "workers " << workers << ", n " << g.order();
  }
}

TEST(Connectivity, TinyGraphs) {
  for (std::size_t n = 0; n <= 2; ++n) expectVerdictMatchesComponents(Graph(n));
  expectVerdictMatchesComponents(path(2));
}

TEST(Connectivity, UnionFindAgreesWithComponentsOnRandomGraphs) {
  Rng rng(1931);
  std::size_t connected = 0;
  std::size_t split = 0;
  for (int i = 0; i < 12; ++i) {
    // Near each family's connectivity threshold, so both verdicts occur.
    const std::size_t n = 50 + 700 * static_cast<std::size_t>(i % 4);
    const auto scale = static_cast<double>(n);
    const double logn = std::log(scale);
    const std::vector<Graph> graphs{
        erdosRenyi(n, logn / scale, rng),
        randomGeometric(n, std::sqrt(logn / (3.14159 * scale)), rng),
        randomTree(n, rng)};
    for (const Graph& g : graphs) {
      expectVerdictMatchesComponents(g);
      (isConnected(g) ? connected : split) += 1;
    }
  }
  EXPECT_GT(connected, 0u);
  EXPECT_GT(split, 0u);
}

TEST(Connectivity, IsolatedVertex) {
  Rng rng(1933);
  const Graph base = connectedRandomGeometric(3000, 0.05, rng);
  for (const Vertex lonely : {Vertex{0}, Vertex{1500}, Vertex{2999}}) {
    std::vector<Edge> edges;
    for (const Edge& e : base.edges()) {
      if (e.u != lonely && e.v != lonely) edges.push_back(e);
    }
    const Graph g = Graph::fromEdges(3000, edges);
    expectVerdictMatchesComponents(g);
    EXPECT_FALSE(detail::isConnected(g, 4));
  }
}

// Two components of similar size, interleaved in vertex order, so the
// sampled largest root is one of them and every vertex of the other must
// be finished; one bridge edge joins them.
TEST(Connectivity, TwoLargeComponents) {
  Rng rng(1937);
  for (const std::size_t half : {2000, 30000}) {
    const double radius = half < 10000 ? 0.05 : 0.015;
    const Graph left = connectedRandomGeometric(half, radius, rng);
    const Graph right = connectedRandomGeometric(half + 17, radius, rng);
    std::vector<Edge> edges;
    for (const Edge& e : left.edges()) edges.push_back({2 * e.u, 2 * e.v});
    for (const Edge& e : right.edges()) {
      const auto at = [&](Vertex v) {
        return v < half ? 2 * v + 1 : static_cast<Vertex>(half + v);
      };
      edges.push_back(makeEdge(at(e.u), at(e.v)));
    }
    const std::size_t n = 2 * half + 17;
    const Graph split = Graph::fromEdges(n, edges);
    expectVerdictMatchesComponents(split);
    EXPECT_FALSE(detail::isConnected(split, 4));
    edges.push_back(makeEdge(2 * static_cast<Vertex>(half) - 2,
                             static_cast<Vertex>(n - 1)));
    const Graph bridged = Graph::fromEdges(n, edges);
    expectVerdictMatchesComponents(bridged);
    EXPECT_TRUE(detail::isConnected(bridged, 4));
  }
}

TEST(Connectivity, LargeUnitDiskAtOneAndFourWorkers) {
  Rng rng(1939);
  const auto points = randomPoints(100000, rng);
  for (const double radius : {0.006, 0.0075}) {
    const Graph g = unitDiskGraph(points, radius);
    expectVerdictMatchesComponents(g);
    EXPECT_EQ(detail::isConnected(g, 1), detail::isConnected(g, 4));
  }
}

TEST(Connectivity, ComponentCount) {
  Graph g(6);
  g.addEdge(0, 1);
  g.addEdge(2, 3);
  g.addEdge(3, 4);
  EXPECT_EQ(componentCount(g), 3u);  // {0,1}, {2,3,4}, {5}
  const auto comp = connectedComponents(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[5], comp[0]);
}

TEST(Diameter, KnownValues) {
  EXPECT_EQ(diameter(path(10)), 9u);
  EXPECT_EQ(diameter(cycle(10)), 5u);
  EXPECT_EQ(diameter(complete(10)), 1u);
  EXPECT_EQ(diameter(star(10)), 2u);
  EXPECT_EQ(diameter(hypercube(5)), 5u);
}

TEST(Diameter, DisconnectedIsUnreachable) {
  Graph g(3);
  g.addEdge(0, 1);
  EXPECT_EQ(diameter(g), kUnreachable);
}

TEST(Bipartite, KnownFamilies) {
  EXPECT_TRUE(isBipartite(path(7)));
  EXPECT_TRUE(isBipartite(cycle(8)));
  EXPECT_FALSE(isBipartite(cycle(7)));
  EXPECT_FALSE(isBipartite(complete(3)));
  EXPECT_TRUE(isBipartite(completeBipartite(4, 5)));
  EXPECT_TRUE(isBipartite(Graph(3)));  // edgeless
}

TEST(Degeneracy, KnownValues) {
  EXPECT_EQ(degeneracyOrder(path(10)).degeneracy, 1u);
  EXPECT_EQ(degeneracyOrder(cycle(10)).degeneracy, 2u);
  EXPECT_EQ(degeneracyOrder(complete(6)).degeneracy, 5u);
  EXPECT_EQ(degeneracyOrder(star(10)).degeneracy, 1u);
  EXPECT_EQ(degeneracyOrder(grid(4, 4)).degeneracy, 2u);
}

TEST(Degeneracy, OrderIsPermutation) {
  const Graph g = grid(3, 3);
  const auto result = degeneracyOrder(g);
  ASSERT_EQ(result.order.size(), 9u);
  std::vector<bool> seen(9, false);
  for (const Vertex v : result.order) {
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Triangles, KnownValues) {
  EXPECT_EQ(triangleCount(complete(4)), 4u);
  EXPECT_EQ(triangleCount(complete(5)), 10u);
  EXPECT_EQ(triangleCount(cycle(5)), 0u);
  EXPECT_EQ(triangleCount(path(10)), 0u);
  EXPECT_EQ(triangleCount(completeBipartite(3, 3)), 0u);
}

TEST(Triangles, SingleTriangle) {
  Graph g(4);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(0, 2);
  g.addEdge(2, 3);
  EXPECT_EQ(triangleCount(g), 1u);
}

}  // namespace
}  // namespace selfstab::graph

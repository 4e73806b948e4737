#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/io.hpp"

namespace selfstab::graph {
namespace {

TEST(Generators, Path) {
  const Graph g = path(5);
  EXPECT_EQ(g.order(), 5u);
  EXPECT_EQ(g.size(), 4u);
  EXPECT_TRUE(isConnected(g));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 2u);
}

TEST(Generators, SingletonAndEmptyPath) {
  EXPECT_EQ(path(1).size(), 0u);
  EXPECT_EQ(path(0).order(), 0u);
}

TEST(Generators, Cycle) {
  const Graph g = cycle(6);
  EXPECT_EQ(g.size(), 6u);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.hasEdge(5, 0));
}

TEST(Generators, Complete) {
  const Graph g = complete(7);
  EXPECT_EQ(g.size(), 21u);
  EXPECT_EQ(g.minDegree(), 6u);
}

TEST(Generators, CompleteBipartite) {
  const Graph g = completeBipartite(3, 4);
  EXPECT_EQ(g.order(), 7u);
  EXPECT_EQ(g.size(), 12u);
  EXPECT_TRUE(isBipartite(g));
  EXPECT_FALSE(g.hasEdge(0, 1));  // same side
  EXPECT_TRUE(g.hasEdge(0, 3));
}

TEST(Generators, Star) {
  const Graph g = star(6);
  EXPECT_EQ(g.size(), 5u);
  EXPECT_EQ(g.degree(0), 5u);
  EXPECT_EQ(g.maxDegree(), 5u);
  EXPECT_EQ(g.minDegree(), 1u);
}

TEST(Generators, Grid) {
  const Graph g = grid(3, 4);
  EXPECT_EQ(g.order(), 12u);
  // Edges: 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8.
  EXPECT_EQ(g.size(), 17u);
  EXPECT_TRUE(isConnected(g));
  EXPECT_TRUE(isBipartite(g));
}

TEST(Generators, Hypercube) {
  const Graph g = hypercube(4);
  EXPECT_EQ(g.order(), 16u);
  EXPECT_EQ(g.size(), 32u);  // d * 2^(d-1)
  for (Vertex v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_TRUE(isBipartite(g));
}

TEST(Generators, BinaryTree) {
  const Graph g = binaryTree(15);
  EXPECT_EQ(g.size(), 14u);
  EXPECT_TRUE(isConnected(g));
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = randomTree(40, rng);
    EXPECT_EQ(g.size(), 39u);
    EXPECT_TRUE(isConnected(g));
  }
}

TEST(Generators, Caterpillar) {
  const Graph g = caterpillar(4, 2);
  EXPECT_EQ(g.order(), 12u);
  EXPECT_EQ(g.size(), 11u);
  EXPECT_TRUE(isConnected(g));
}

TEST(Generators, Wheel) {
  const Graph g = wheel(7);  // hub + C6
  EXPECT_EQ(g.order(), 7u);
  EXPECT_EQ(g.size(), 12u);  // 6 spokes + 6 rim edges
  EXPECT_EQ(g.degree(0), 6u);
  for (Vertex v = 1; v < 7; ++v) EXPECT_EQ(g.degree(v), 3u);
  EXPECT_TRUE(g.hasEdge(6, 1));  // rim wraps
}

TEST(Generators, Petersen) {
  const Graph g = petersen();
  EXPECT_EQ(g.order(), 10u);
  EXPECT_EQ(g.size(), 15u);
  for (Vertex v = 0; v < 10; ++v) EXPECT_EQ(g.degree(v), 3u);
  EXPECT_EQ(triangleCount(g), 0u);  // girth 5
  EXPECT_FALSE(isBipartite(g));
  EXPECT_EQ(diameter(g), 2u);
}

TEST(Generators, Barbell) {
  const Graph g = barbell(4, 2);
  EXPECT_EQ(g.order(), 10u);
  // 2 * C(4,2) + path edges (3) = 12 + 3.
  EXPECT_EQ(g.size(), 15u);
  EXPECT_TRUE(isConnected(g));

  const Graph direct = barbell(3, 0);  // cliques joined by one edge
  EXPECT_EQ(direct.order(), 6u);
  EXPECT_EQ(direct.size(), 7u);
  EXPECT_TRUE(direct.hasEdge(2, 3));
}

TEST(Generators, Lollipop) {
  const Graph g = lollipop(5, 3);
  EXPECT_EQ(g.order(), 8u);
  EXPECT_EQ(g.size(), 13u);  // C(5,2) + 3
  EXPECT_TRUE(isConnected(g));
  EXPECT_EQ(g.degree(7), 1u);  // tail end
}

TEST(Generators, RandomRegularIsRegular) {
  Rng rng(8);
  for (const std::size_t d : {2u, 3u, 4u}) {
    const Graph g = randomRegular(20, d, rng);
    EXPECT_EQ(g.order(), 20u);
    EXPECT_EQ(g.size(), 20u * d / 2);
    for (Vertex v = 0; v < 20; ++v) EXPECT_EQ(g.degree(v), d) << "d=" << d;
  }
}

TEST(Generators, ErdosRenyiExtremes) {
  Rng rng(2);
  EXPECT_EQ(erdosRenyi(10, 0.0, rng).size(), 0u);
  EXPECT_EQ(erdosRenyi(10, 1.0, rng).size(), 45u);
}

TEST(Generators, ErdosRenyiDensityRoughlyP) {
  Rng rng(3);
  const Graph g = erdosRenyi(100, 0.3, rng);
  const double maxEdges = 100.0 * 99.0 / 2.0;
  EXPECT_NEAR(static_cast<double>(g.size()) / maxEdges, 0.3, 0.05);
}

TEST(Generators, ConnectedErdosRenyiIsConnected) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = connectedErdosRenyi(30, 0.02, rng);
    EXPECT_TRUE(isConnected(g));
  }
}

TEST(Generators, PreferentialAttachmentShapeAndDeterminism) {
  Rng rng(9);
  const Graph g = preferentialAttachment(60, 3, rng);
  EXPECT_EQ(g.order(), 60u);
  EXPECT_TRUE(isConnected(g));
  // Vertex v contributes min(v, m) fresh edges, all simple.
  std::size_t expected = 0;
  for (std::size_t v = 1; v < 60; ++v) expected += std::min<std::size_t>(v, 3);
  EXPECT_EQ(g.size(), expected);
  for (Vertex v = 3; v < 60; ++v) EXPECT_GE(g.degree(v), 3u);

  Rng rngA(10), rngB(10), rngC(11);
  const Graph a = preferentialAttachment(40, 2, rngA);
  EXPECT_EQ(a, preferentialAttachment(40, 2, rngB));
  EXPECT_NE(a, preferentialAttachment(40, 2, rngC));
}

TEST(Generators, PreferentialAttachmentSkewsDegrees) {
  // The rich-get-richer dynamic must produce a hub far above the mean degree
  // (this heavy tail is what the degree-weighted partitioner exists for).
  Rng rng(12);
  const Graph g = preferentialAttachment(400, 2, rng);
  std::size_t maxDeg = 0;
  for (Vertex v = 0; v < g.order(); ++v) {
    maxDeg = std::max<std::size_t>(maxDeg, g.degree(v));
  }
  const double mean = 2.0 * static_cast<double>(g.size()) / 400.0;
  EXPECT_GT(static_cast<double>(maxDeg), 4.0 * mean);
}

TEST(Generators, RandomGeometricReturnsPoints) {
  Rng rng(5);
  std::vector<Point> pts;
  const Graph g = randomGeometric(25, 0.3, rng, &pts);
  EXPECT_EQ(pts.size(), 25u);
  EXPECT_EQ(g, unitDiskGraph(pts, 0.3));
}

TEST(Generators, ConnectedRandomGeometricIsConnected) {
  Rng rng(6);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = connectedRandomGeometric(30, 0.3, rng);
    EXPECT_TRUE(isConnected(g));
  }
}

TEST(Generators, ConnectedRandomGeometricFallbackStillConnected) {
  Rng rng(7);
  // Tiny radius: the unit-disk graph is essentially never connected, forcing
  // the spanning-tree fallback.
  const Graph g = connectedRandomGeometric(20, 0.01, rng, nullptr, 2);
  EXPECT_TRUE(isConnected(g));
}

// Hash of a graph's edge set, order and version(): equal fingerprints mean
// the same edges, reached through the same number of successful edits.
std::uint64_t fingerprint(const Graph& g) {
  std::uint64_t h = hashCombine(g.order(), g.version());
  for (const Edge& e : g.edges()) {
    h = hashCombine(h, (std::uint64_t{e.u} << 32) | e.v);
  }
  return h;
}

// A seeded generator's fingerprint, folded with the next draw of its Rng, so
// a changed graph and a changed number of RNG draws both show.
std::uint64_t seeded(std::uint64_t seed,
                     const std::function<Graph(Rng&)>& generate) {
  Rng rng(seed);
  const Graph g = generate(rng);
  return hashCombine(fingerprint(g), rng.next());
}

// An edge list of a random graph, edges shuffled and half of them written
// high endpoint first.
std::string shuffledEdgeList(std::uint64_t seed) {
  Rng rng(seed);
  const Graph g = connectedErdosRenyi(40, 0.1, rng);
  std::vector<Edge> edges = g.edges();
  rng.shuffle(edges);
  std::ostringstream out;
  out << g.order() << ' ' << edges.size() << '\n';
  for (const Edge& e : edges) {
    if (rng.chance(0.5)) {
      out << e.v << ' ' << e.u << '\n';
    } else {
      out << e.u << ' ' << e.v << '\n';
    }
  }
  return out.str();
}

// Every generator and reader at fixed seeds, pinned to the values the
// per-edge addEdge builds produced: same edges, same version(), same RNG
// draws (connectedErdosRenyi draws only for absent edges,
// preferentialAttachment resamples duplicates, randomRegular rejects
// multi-edges, connectedRandomGeometric splices a tree into its last sample).
TEST(Generators, PinnedFingerprints) {
  EXPECT_EQ(fingerprint(path(17)), 0x843a1efd684af722ULL);
  EXPECT_EQ(fingerprint(cycle(13)), 0x044d26c05ab551bdULL);
  EXPECT_EQ(fingerprint(complete(9)), 0x8df5751a4963a44cULL);
  EXPECT_EQ(fingerprint(completeBipartite(4, 6)), 0x189a0298b2ca5994ULL);
  EXPECT_EQ(fingerprint(star(11)), 0x3089517f25bf920bULL);
  EXPECT_EQ(fingerprint(grid(5, 7)), 0xc9dc5b4aba198c31ULL);
  EXPECT_EQ(fingerprint(hypercube(5)), 0xcbbc7ef679065220ULL);
  EXPECT_EQ(fingerprint(binaryTree(23)), 0x7f5ef546b3e840efULL);
  EXPECT_EQ(fingerprint(caterpillar(6, 3)), 0x0cafe2cb326e07d8ULL);
  EXPECT_EQ(fingerprint(wheel(9)), 0x810a80696048429eULL);
  EXPECT_EQ(fingerprint(petersen()), 0xd15191c5cbbcd7a5ULL);
  EXPECT_EQ(fingerprint(barbell(5, 3)), 0xdfb321a26e5114e5ULL);
  EXPECT_EQ(fingerprint(barbell(4, 0)), 0xa76562ae467984d8ULL);
  EXPECT_EQ(fingerprint(lollipop(6, 4)), 0x2efb2b52307f6ac4ULL);
  EXPECT_EQ(seeded(101, [](Rng& r) { return randomTree(50, r); }),
            0x4c0111a74246fd3eULL);
  EXPECT_EQ(seeded(102, [](Rng& r) { return erdosRenyi(60, 0.1, r); }),
            0x3967c720b5fa7a31ULL);
  EXPECT_EQ(
      seeded(103, [](Rng& r) { return connectedErdosRenyi(60, 0.08, r); }),
      0x4b57e8b71ab72f7bULL);
  EXPECT_EQ(seeded(104, [](Rng& r) { return randomRegular(40, 4, r); }),
            0x5ee873ec7af8f249ULL);
  EXPECT_EQ(seeded(105, [](Rng& r) { return randomGeometric(300, 0.1, r); }),
            0x28b839cd0c384c38ULL);
  EXPECT_EQ(seeded(106,
                   [](Rng& r) {
                     return connectedRandomGeometric(300, 0.12, r);
                   }),
            0x27f6b92cd6e76324ULL);
  // Two samples of a tiny radius, then the spanning-tree splice.
  EXPECT_EQ(seeded(107,
                   [](Rng& r) {
                     return connectedRandomGeometric(60, 0.05, r, nullptr, 2);
                   }),
            0x54579ff574785e41ULL);
  EXPECT_EQ(
      seeded(108, [](Rng& r) { return preferentialAttachment(200, 3, r); }),
      0x89a9a37230711ccfULL);
  Rng pointRng(109);
  EXPECT_EQ(fingerprint(detail::unitDiskGraph(randomPoints(2000, pointRng),
                                              0.04, 4)),
            0xf07ca08f9288c7a4ULL);
  std::istringstream edgeList(shuffledEdgeList(110));
  EXPECT_EQ(fingerprint(readEdgeList(edgeList)), 0xae0aedbd00ab459eULL);
  Rng dimacsRng(111);
  std::ostringstream dimacsText;
  writeDimacs(dimacsText, erdosRenyi(30, 0.2, dimacsRng));
  std::istringstream dimacs(dimacsText.str());
  EXPECT_EQ(fingerprint(readDimacs(dimacs)), 0x5b675de72c0301f6ULL);
}

}  // namespace
}  // namespace selfstab::graph

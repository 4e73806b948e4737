#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
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

// The CSR a mix of edits leaves behind (ported from the executor's former
// CSR mirror test): after every add, remove, toggle or clear it must equal
// a std::set reference adjacency, with each vertex's slice ascending and
// laid out right after its predecessor's, maxDegree() exact, and version()
// advanced by exactly one on each successful edit and not at all on a
// failed one.
TEST(Graph, CsrMatchesSetReferenceAcrossEdits) {
  Rng rng(813);
  const std::size_t n = 24;
  Graph g(n);
  std::vector<std::set<Vertex>> ref(n);
  std::uint64_t version = 0;

  const auto check = [&] {
    ASSERT_EQ(g.version(), version);
    std::size_t slots = 0;
    std::size_t maxDeg = 0;
    std::size_t minDeg = n;
    std::vector<Edge> edges;
    for (Vertex v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(v);
      ASSERT_TRUE(std::equal(nbrs.begin(), nbrs.end(), ref[v].begin(),
                             ref[v].end()))
          << "v=" << v;
      ASSERT_EQ(g.degree(v), ref[v].size());
      // One flat array: each slice starts where the previous one ended.
      g.withSlices([&](const auto& adj) {
        ASSERT_EQ(adj.neighbors(v).data(), adj.neighbors(0).data() + slots)
            << "v=" << v;
      });
      slots += nbrs.size();
      maxDeg = std::max(maxDeg, ref[v].size());
      minDeg = std::min(minDeg, ref[v].size());
      for (const Vertex w : ref[v]) {
        if (v < w) edges.push_back({v, w});
      }
    }
    ASSERT_EQ(g.size() * 2, slots);
    ASSERT_EQ(g.maxDegree(), maxDeg);
    ASSERT_EQ(g.minDegree(), minDeg);
    ASSERT_EQ(g.edges(), edges);
  };

  check();
  for (int step = 0; step < 600; ++step) {
    const auto u = static_cast<Vertex>(rng.below(n));
    const auto w = static_cast<Vertex>(rng.below(n));
    const std::uint64_t op = rng.below(20);
    if (op == 0) {
      if (g.size() > 0) ++version;
      g.clearEdges();
      for (auto& nbrs : ref) nbrs.clear();
    } else if (op < 8) {
      const bool added = u != w && ref[u].insert(w).second;
      if (added) ref[w].insert(u);
      ASSERT_EQ(g.addEdge(u, w), added);
      version += added ? 1 : 0;
    } else if (op < 14) {
      const bool removed = u != w && ref[u].erase(w) == 1;
      if (removed) ref[w].erase(u);
      ASSERT_EQ(g.removeEdge(u, w), removed);
      version += removed ? 1 : 0;
    } else {
      const bool present = ref[u].count(w) == 1;
      if (u != w) {
        if (present) {
          ref[u].erase(w);
          ref[w].erase(u);
        } else {
          ref[u].insert(w);
          ref[w].insert(u);
        }
        ++version;
      }
      ASSERT_EQ(g.toggleEdge(u, w), u != w && !present);
    }
    check();
  }
}

// The bulk factories must give the graph addEdge would have built from the
// same edges, version() included, and that graph must behave identically
// under later edits, successful or not.
TEST(Graph, FromCsrEqualsAddEdgeBuild) {
  Rng rng(42);
  const std::size_t n = 40;
  Graph built(n);
  for (int k = 0; k < 150; ++k) {
    built.addEdge(static_cast<Vertex>(rng.below(n)),
                  static_cast<Vertex>(rng.below(n)));
  }
  Graph::Offsets offsets{0};
  Graph::Targets targets;
  for (Vertex v = 0; v < n; ++v) {
    targets.insert(targets.end(), built.neighbors(v).begin(),
                   built.neighbors(v).end());
    offsets.push_back(targets.size());
  }
  Graph bulk = Graph::fromCsr(std::move(offsets), std::move(targets));
  std::vector<Edge> shuffled = built.edges();
  rng.shuffle(shuffled);
  for (Edge& e : shuffled) {
    if (rng.chance(0.5)) std::swap(e.u, e.v);
  }
  EXPECT_EQ(Graph::fromEdges(n, shuffled), built);
  EXPECT_EQ(Graph::fromEdges(n, shuffled).version(), built.version());

  const auto same = [&] {
    ASSERT_TRUE(bulk == built);
    ASSERT_EQ(bulk.order(), built.order());
    ASSERT_EQ(bulk.size(), built.size());
    ASSERT_EQ(bulk.version(), built.version());
    ASSERT_EQ(bulk.maxDegree(), built.maxDegree());
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
    switch (rng.below(3)) {
      case 0:
        ASSERT_EQ(bulk.addEdge(u, v), built.addEdge(u, v));
        break;
      case 1:
        ASSERT_EQ(bulk.removeEdge(u, v), built.removeEdge(u, v));
        break;
      default:
        ASSERT_EQ(bulk.toggleEdge(u, v), built.toggleEdge(u, v));
        break;
    }
    same();
  }
  const Edge e = bulk.edges().front();
  ASSERT_FALSE(bulk.addEdge(e.u, e.v));  // already present: no version bump
  ASSERT_FALSE(built.addEdge(e.u, e.v));
  same();
  bulk.clearEdges();
  built.clearEdges();
  same();
}

// version() is what a kernel's or executor's cache revalidates against: a
// bulk-built graph must start where the addEdge-built one stands, stay put
// with no edit or a no-op one, and move in step on every successful edit.
TEST(Graph, BulkBuiltGraphVersionsEditsLikeAnAddEdgeBuiltOne) {
  Rng rng(815);
  Graph built = graph::connectedErdosRenyi(30, 0.2, rng);
  Graph bulk = Graph::fromEdges(built.order(), built.edges());

  const auto check = [&] {
    ASSERT_EQ(bulk.version(), built.version());
    for (Vertex v = 0; v < built.order(); ++v) {
      const auto a = built.neighbors(v);
      const auto b = bulk.neighbors(v);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "v=" << v;
    }
  };
  check();
  const std::uint64_t start = bulk.version();
  EXPECT_EQ(start, built.size());
  check();
  EXPECT_EQ(bulk.version(), start);
  for (int k = 0; k < 40; ++k) {
    const auto u = static_cast<Vertex>(rng.below(built.order()));
    const auto w = static_cast<Vertex>(rng.below(built.order()));
    const std::uint64_t before = bulk.version();
    ASSERT_EQ(bulk.toggleEdge(u, w), built.toggleEdge(u, w));
    check();
    EXPECT_EQ(bulk.version(), before + (u != w ? 1U : 0U));
  }
  const Edge e = bulk.edges().front();
  const std::uint64_t before = bulk.version();
  ASSERT_FALSE(bulk.addEdge(e.u, e.v));  // already present: no version bump
  ASSERT_FALSE(built.addEdge(e.u, e.v));
  check();
  EXPECT_EQ(bulk.version(), before);
}

TEST(Graph, FromCsrOfEmptySlicesIsEdgeless) {
  const Graph g = Graph::fromCsr(Graph::Offsets(6, 0), {});
  EXPECT_TRUE(g == Graph(5));
  EXPECT_EQ(g.size(), 0U);
  EXPECT_EQ(g.maxDegree(), 0U);
  EXPECT_EQ(g.version(), 0U);
  EXPECT_EQ(Graph::fromCsr({0}, {}).order(), 0U);
  EXPECT_TRUE(Graph::fromEdges(0, {}) == Graph());
  EXPECT_TRUE(Graph::fromEdges(3, {}) == Graph(3));
}

// rebuildFrom replaces the edges in place and moves version() on as
// clearEdges() plus one addEdge per new edge would, so a cache keyed on
// the rebuilt object's version() can never see an old value again.
TEST(Graph, RebuildFromAdvancesVersionLikeClearAndAdd) {
  Graph g(6);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  Graph twin = g;
  const std::vector<Edge> next{{0, 5}, {2, 3}, {3, 4}};
  g.rebuildFrom(Graph::fromEdges(6, next));
  twin.clearEdges();
  for (const Edge& e : next) twin.addEdge(e.u, e.v);
  EXPECT_EQ(g, twin);
  EXPECT_EQ(g.version(), twin.version());
  EXPECT_EQ(g.version(), 2U + 1U + 3U);
  EXPECT_EQ(g.maxDegree(), 2U);

  const std::uint64_t before = g.version();
  g.rebuildFrom(Graph(6));
  EXPECT_EQ(g, Graph(6));
  EXPECT_EQ(g.version(), before + 1);  // the clear
  g.rebuildFrom(Graph(6));
  EXPECT_EQ(g.version(), before + 1);  // nothing changed
}

TEST(Graph, LabelsSurviveCopyEditsAndRebuild) {
  // A 4-cycle 0-1-2-3 whose vertices show as 2, 0, 3, 1.
  const std::vector<Vertex> labels = {2, 0, 3, 1};
  Graph g = Graph::fromCsr({0, 2, 4, 6, 8}, Graph::Targets{1, 3, 0, 2, 1, 3,
                                                           0, 2},
                           Graph::Labels(labels.begin(), labels.end()));
  ASSERT_TRUE(g.labelled());
  EXPECT_EQ(std::vector<Vertex>(g.labels().begin(), g.labels().end()),
            labels);
  EXPECT_EQ(g.labelOf(2), 3U);
  EXPECT_EQ(vertexByLabel(g), (std::vector<Vertex>{1, 3, 0, 2}));
  EXPECT_EQ(Graph(4).labelOf(3), 3U);
  EXPECT_TRUE(vertexByLabel(Graph(3)).empty());

  // Labels are part of equality: the same CSR unlabelled is another graph.
  const Graph unlabelled =
      Graph::fromCsr({0, 2, 4, 6, 8}, Graph::Targets{1, 3, 0, 2, 1, 3, 0, 2});
  EXPECT_FALSE(g == unlabelled);

  Graph copy = g;
  EXPECT_TRUE(copy == g);
  EXPECT_TRUE(copy.addEdge(0, 2));
  EXPECT_TRUE(copy.removeEdge(0, 1));
  EXPECT_FALSE(copy.toggleEdge(1, 2));
  EXPECT_EQ(copy.labelOf(0), 2U);
  copy.clearEdges();
  EXPECT_EQ(copy.labelOf(3), 1U);

  // A rebuild takes the new edges and keeps the graph's own labels.
  const std::uint64_t before = g.version();
  g.rebuildFrom(Graph::fromEdges(4, std::vector<Edge>{{0, 2}, {1, 3}}));
  EXPECT_TRUE(g.hasEdge(0, 2));
  EXPECT_FALSE(g.hasEdge(0, 1));
  EXPECT_GT(g.version(), before);
  EXPECT_EQ(std::vector<Vertex>(g.labels().begin(), g.labels().end()),
            labels);

  Graph moved = std::move(g);
  EXPECT_EQ(moved.labelOf(1), 0U);
}

#ifndef NDEBUG
TEST(GraphDeathTest, FromCsrChecksItsInput) {
  using Offsets = Graph::Offsets;
  using Targets = Graph::Targets;
  EXPECT_DEATH(Graph::fromCsr(Offsets{0, 1, 1}, Targets{1}), "symmetric");
  EXPECT_DEATH(Graph::fromCsr(Offsets{0, 2, 3, 4}, Targets{2, 1, 0, 0}),
               "ascending");
  EXPECT_DEATH(Graph::fromCsr(Offsets{0, 2, 2}, Targets{1, 1}), "ascending");
  EXPECT_DEATH(Graph::fromCsr(Offsets{0, 1}, Targets{0}), "loop");
  EXPECT_DEATH(Graph::fromCsr(Offsets{0, 1, 1}, Targets{3}), "range");
  EXPECT_DEATH(Graph::fromCsr(Offsets{0, 2}, Targets{1}), "offsets");
  EXPECT_DEATH(Graph::fromCsr(Offsets{}, Targets{}), "offsets");
  EXPECT_DEATH(Graph::fromEdges(2, std::vector<Edge>{{0, 2}}), "range");
  EXPECT_DEATH(Graph::fromEdges(3, std::vector<Edge>{{0, 1}, {1, 0}}),
               "ascending");
  EXPECT_DEATH(Graph::fromEdges(3, std::vector<Edge>{{1, 1}}), "loop");
}

TEST(GraphDeathTest, LabelsMustBeAPermutation) {
  using Offsets = Graph::Offsets;
  using Targets = Graph::Targets;
  EXPECT_DEATH(Graph::fromCsr(Offsets{0, 0, 0}, Targets{}, {0, 0}),
               "permutation");
  EXPECT_DEATH(Graph::fromCsr(Offsets{0, 0, 0}, Targets{}, {0, 2}),
               "permutation");
  EXPECT_DEATH(Graph::fromCsr(Offsets{0, 0, 0}, Targets{}, {0}), "label");
  Graph g = Graph::fromCsr(Offsets{0, 0, 0}, Targets{}, {1, 0});
  EXPECT_DEATH(g.rebuildFrom(Graph::fromCsr(Offsets{0, 0, 0}, Targets{},
                                            {0, 1})),
               "labels");
}
#endif

// Narrow slices hold w − v in 2 bytes: an edge fits iff |w − v| ≤ 32767.
TEST(SliceWidth, NarrowIffEveryEdgeFits) {
  const std::size_t n = 40000;
  const Graph fits = Graph::fromEdges(n, std::vector<Edge>{{0, 32767},
                                                           {7000, 39000}});
  EXPECT_TRUE(fits.narrow());
  EXPECT_EQ(fits.neighbors(0).front(), 32767u);
  EXPECT_EQ(fits.neighbors(32767).front(), 0u);
  EXPECT_EQ(fits.neighbors(39000).front(), 7000u);
  const Graph over = Graph::fromEdges(n, std::vector<Edge>{{0, 32768}});
  EXPECT_FALSE(over.narrow());
  EXPECT_EQ(over.neighbors(32768).front(), 0u);
  // fromCsr decides the same way.
  EXPECT_TRUE(Graph::fromCsr({0, 1, 1, 2}, Graph::Targets{2, 0}).narrow());
  Graph::Offsets offsets(32770, 1);
  offsets[0] = 0;
  offsets[32769] = 2;
  EXPECT_FALSE(
      Graph::fromCsr(offsets, Graph::Targets{32768, 0}).narrow());
  EXPECT_TRUE(Graph(5).narrow());
  EXPECT_EQ(fits.sliceBytes(), 4 * sizeof(Delta));
  EXPECT_EQ(over.sliceBytes(), 2 * sizeof(Vertex));
}

// An added edge that does not fit turns the graph wide; version() counts
// the edit as any other, and removing the edge leaves the width alone.
TEST(SliceWidth, AddEdgeOutgrowsNarrow) {
  Graph g(40000);
  ASSERT_TRUE(g.addEdge(7, 30000));
  ASSERT_TRUE(g.addEdge(7, 8));
  EXPECT_TRUE(g.narrow());
  const std::uint64_t before = g.version();
  ASSERT_TRUE(g.addEdge(39999, 7));
  EXPECT_FALSE(g.narrow());
  EXPECT_EQ(g.version(), before + 1);
  const std::vector<Vertex> expected = {8, 30000, 39999};
  const auto nbrs = g.neighbors(7);
  EXPECT_TRUE(std::equal(nbrs.begin(), nbrs.end(), expected.begin(),
                         expected.end()));
  EXPECT_TRUE(g.hasEdge(39999, 7));
  EXPECT_TRUE(g == Graph::fromEdges(40000, g.edges()));
  ASSERT_TRUE(g.removeEdge(7, 39999));
  EXPECT_FALSE(g.narrow());
  EXPECT_TRUE(g == Graph::fromEdges(40000, g.edges()));
  g.clearEdges();
  EXPECT_TRUE(g.narrow());
}

// Equality ignores the width; widened() changes nothing else.
TEST(SliceWidth, EqualityAcrossWidths) {
  Rng rng(29);
  const Graph narrow = connectedErdosRenyi(300, 0.05, rng);
  ASSERT_TRUE(narrow.narrow());
  const Graph wide = detail::widened(narrow);
  EXPECT_FALSE(wide.narrow());
  EXPECT_TRUE(narrow == wide);
  EXPECT_TRUE(wide == narrow);
  EXPECT_EQ(wide.version(), narrow.version());
  EXPECT_EQ(wide.maxDegree(), narrow.maxDegree());
  EXPECT_EQ(wide.edges(), narrow.edges());
  Graph edited = wide;
  const Edge e = narrow.edges().front();
  edited.removeEdge(e.u, e.v);
  EXPECT_FALSE(narrow == edited);
  edited.addEdge(e.u, e.v);
  EXPECT_TRUE(narrow == edited);
  EXPECT_FALSE(narrow == Graph::fromCsr({0, 0}, {}));
}

// Typed slices, the run-time one and std::lower_bound agree at both widths.
TEST(SliceWidth, TypedSlicesMatchNeighbors) {
  Rng rng(31);
  const Graph narrow = connectedErdosRenyi(200, 0.08, rng);
  for (const Graph& g : {narrow, detail::widened(narrow)}) {
    g.withSlices([&](const auto& adj) {
      for (Vertex v = 0; v < g.order(); ++v) {
        const auto typed = adj.neighbors(v);
        const auto any = g.neighbors(v);
        ASSERT_EQ(typed.size(), any.size());
        for (std::size_t k = 0; k < typed.size(); ++k) {
          ASSERT_EQ(typed[k], any[k]);
          const auto at = std::lower_bound(any.begin(), any.end(), any[k]);
          ASSERT_EQ(static_cast<std::size_t>(at - any.begin()), k);
        }
      }
    });
  }
}

// The filtered rebuild keeps a narrow base narrow and narrows a wide one
// whose kept edges fit.
TEST(SliceWidth, FilteredRebuildFollowsTheFit) {
  const std::size_t n = 40000;
  const Graph base = Graph::fromEdges(
      n, std::vector<Edge>{{0, 1}, {1, 2}, {2, 39000}, {5, 6}});
  ASSERT_FALSE(base.narrow());
  Graph g = base;
  const std::uint64_t before = g.version();
  g.rebuildFrom(base, [](Vertex u, Vertex w) { return u < 30000 && w < 30000; });
  EXPECT_TRUE(g.narrow());
  EXPECT_EQ(g.edges(), (std::vector<Edge>{{0, 1}, {1, 2}, {5, 6}}));
  EXPECT_EQ(g.version(), before + 1 + 3);
  const Graph narrowBase = g;
  g.rebuildFrom(narrowBase, [](Vertex u, Vertex w) { return u + w != 11; });
  EXPECT_TRUE(g.narrow());
  EXPECT_EQ(g.edges(), (std::vector<Edge>{{0, 1}, {1, 2}}));
  g.rebuildFrom(base, [](Vertex, Vertex) { return true; });
  EXPECT_FALSE(g.narrow());
  EXPECT_TRUE(g == base);
}

TEST(MakeEdge, NormalizesOrder) {
  EXPECT_EQ(makeEdge(5, 2), (Edge{2, 5}));
  EXPECT_EQ(makeEdge(2, 5), (Edge{2, 5}));
}

}  // namespace
}  // namespace selfstab::graph

// The SMM safety check walks vertices, not the edge list: it must count the
// same broken pairs as the edge-list definition on arbitrary transitions.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "chaos/safety.hpp"
#include "core/smm.hpp"
#include "graph/generators.hpp"

namespace selfstab::chaos {
namespace {

using core::PointerState;
using graph::Graph;
using graph::Vertex;

// The definition: every g-edge whose ends are both non-faulty and point at
// each other before the round, and not both after it.
std::size_t brokenPairsByEdges(const Graph& g,
                               const std::vector<PointerState>& before,
                               const std::vector<PointerState>& after,
                               const std::vector<std::uint8_t>& faulty) {
  std::size_t violations = 0;
  for (const auto& e : g.edges()) {
    if (faulty[e.u] != 0 || faulty[e.v] != 0) continue;
    const bool wasMatched = before[e.u].ptr == e.v && before[e.v].ptr == e.u;
    const bool stillMatched = after[e.u].ptr == e.v && after[e.v].ptr == e.u;
    if (wasMatched && !stillMatched) ++violations;
  }
  return violations;
}

// A pointer at a random neighbor, a random non-neighbor, past the last
// vertex, or null.
Vertex wildPointer(Vertex v, const Graph& g, graph::Rng& rng) {
  const std::size_t n = g.order();
  switch (rng.below(4)) {
    case 0:
      return core::randomPointerState(v, g, rng).ptr;
    case 1:
      return static_cast<Vertex>(rng.below(n));
    case 2:
      return static_cast<Vertex>(n + rng.below(3));
    default:
      return graph::kNoVertex;
  }
}

TEST(SmmSafetyCheck, MatchesEdgeListDefinition) {
  graph::Rng rng(1949);
  const auto safety = smmSafetyCheck();
  std::size_t seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 20 + rng.below(400);
    const Graph g = trial % 2 == 0
                        ? graph::connectedErdosRenyi(n, 0.05, rng)
                        : graph::randomGeometric(n, 0.15, rng);
    // Mostly mutual pairs, some of them over non-edges, plus wild pointers.
    std::vector<PointerState> before(n);
    for (Vertex v = 0; v < n; ++v) {
      if (before[v].ptr != graph::kNoVertex) continue;
      const Vertex w = static_cast<Vertex>(rng.below(n));
      if (w != v && before[w].ptr == graph::kNoVertex && rng.chance(0.7)) {
        before[v].ptr = w;
        before[w].ptr = v;
      } else {
        before[v].ptr = wildPointer(v, g, rng);
      }
    }
    for (Vertex v = 0; v < n; ++v) {
      const auto w = core::randomPointerState(v, g, rng).ptr;
      if (w != graph::kNoVertex && before[w].ptr == graph::kNoVertex &&
          before[v].ptr == graph::kNoVertex) {
        before[v].ptr = w;
        before[w].ptr = v;
      }
    }
    std::vector<PointerState> after = before;
    std::vector<std::uint8_t> faulty(n, 0);
    for (Vertex v = 0; v < n; ++v) {
      if (rng.chance(0.2)) after[v].ptr = wildPointer(v, g, rng);
      if (rng.chance(0.1)) faulty[v] = 1;
    }
    const std::size_t want = brokenPairsByEdges(g, before, after, faulty);
    EXPECT_EQ(safety(g, before, after, faulty), want) << "trial " << trial;
    seen += want;
  }
  EXPECT_GT(seen, 0u);
}

}  // namespace
}  // namespace selfstab::chaos

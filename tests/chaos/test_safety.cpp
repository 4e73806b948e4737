// The safety checks look only at the vertices they are given. On arbitrary
// transitions they must count what the O(n) definitions below count: the
// SMM check the same broken pairs as the edge-list definition, and both
// checks the same over a round's moved list as over every vertex.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "chaos/safety.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "graph/generators.hpp"

namespace selfstab::chaos {
namespace {

using core::BitState;
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

// The O(n) vertex walk the SMM check used to be: a node has at most one
// mutual partner, so walking each node's pointer visits every matched edge
// once, from its smaller end.
std::size_t brokenPairsByVertices(const Graph& g,
                                  const std::vector<PointerState>& before,
                                  const std::vector<PointerState>& after,
                                  const std::vector<std::uint8_t>& faulty) {
  std::size_t violations = 0;
  for (Vertex v = 0; v < before.size(); ++v) {
    const Vertex w = before[v].ptr;
    if (w <= v || w >= before.size() || before[w].ptr != v) continue;
    if (faulty[v] != 0 || faulty[w] != 0 || !g.hasEdge(v, w)) continue;
    if (after[v].ptr != w || after[w].ptr != v) ++violations;
  }
  return violations;
}

// The SIS definition: every non-faulty node that leaves the set although no
// neighbor was in it before the round.
std::size_t strandedLeaversByVertices(const Graph& g,
                                      const std::vector<BitState>& before,
                                      const std::vector<BitState>& after,
                                      const std::vector<std::uint8_t>& faulty) {
  std::size_t violations = 0;
  for (Vertex v = 0; v < before.size(); ++v) {
    if (faulty[v] != 0 || !before[v].in || after[v].in) continue;
    bool hadInNeighbor = false;
    for (const Vertex w : g.neighbors(v)) hadInNeighbor |= before[w].in;
    if (!hadInNeighbor) ++violations;
  }
  return violations;
}

// The vertices whose state differs, ascending (a campaign's moved list).
template <typename State>
std::vector<Vertex> movedList(const std::vector<State>& before,
                              const std::vector<State>& after) {
  std::vector<Vertex> moved;
  for (Vertex v = 0; v < before.size(); ++v) {
    if (!(before[v] == after[v])) moved.push_back(v);
  }
  return moved;
}

// The moved list plus some unchanged vertices, shuffled: the contract lets
// a caller list more than the movers, in any order.
template <typename State>
std::vector<Vertex> paddedList(const std::vector<State>& before,
                               const std::vector<State>& after,
                               graph::Rng& rng) {
  std::vector<Vertex> listed;
  for (Vertex v = 0; v < before.size(); ++v) {
    if (!(before[v] == after[v]) || rng.chance(0.2)) listed.push_back(v);
  }
  rng.shuffle(listed);
  return listed;
}

Graph randomGraph(int trial, graph::Rng& rng) {
  const std::size_t n = 20 + rng.below(400);
  return trial % 2 == 0 ? graph::connectedErdosRenyi(n, 0.05, rng)
                        : graph::randomGeometric(n, 0.15, rng);
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

// Adversarial SMM transitions: mutual pairs over edges and non-edges, wild
// and out-of-range pointers, faulty masks, and rounds in which both ends of
// a pair move (to each other's old partner, to a wild value, or to Λ). The
// moved-list form must count what the O(n) definitions count.
TEST(SmmSafetyCheck, MovedListMatchesWholeTransition) {
  graph::Rng rng(2024);
  const auto safety = smmSafetyCheck();
  std::size_t seen = 0;
  std::size_t bothEndsMoved = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const Graph g = randomGraph(trial, rng);
    const std::size_t n = g.order();
    std::vector<PointerState> before(n);
    for (Vertex v = 0; v < n; ++v) {
      if (before[v].ptr != graph::kNoVertex) continue;
      const Vertex w = rng.chance(0.5)
                           ? core::randomPointerState(v, g, rng).ptr
                           : static_cast<Vertex>(rng.below(n));
      if (w != graph::kNoVertex && w != v &&
          before[w].ptr == graph::kNoVertex && rng.chance(0.8)) {
        before[v].ptr = w;
        before[w].ptr = v;
      } else if (rng.chance(0.5)) {
        before[v].ptr = wildPointer(v, g, rng);
      }
    }
    std::vector<PointerState> after = before;
    std::vector<std::uint8_t> faulty(n, 0);
    const double moveRate = trial % 4 == 0 ? 0.02 : 0.25;
    for (Vertex v = 0; v < n; ++v) {
      if (rng.chance(moveRate)) after[v].ptr = wildPointer(v, g, rng);
      if (rng.chance(0.1)) faulty[v] = 1;
    }
    // Break some pairs at both ends at once.
    for (Vertex v = 0; v < n; ++v) {
      const Vertex w = before[v].ptr;
      if (w > v && w < n && before[w].ptr == v && rng.chance(0.2)) {
        after[v].ptr = graph::kNoVertex;
        after[w].ptr = wildPointer(w, g, rng);
        if (after[w].ptr == v) after[w].ptr = graph::kNoVertex;
        ++bothEndsMoved;
      }
    }
    const std::size_t want = brokenPairsByVertices(g, before, after, faulty);
    ASSERT_EQ(brokenPairsByEdges(g, before, after, faulty), want);
    const std::vector<Vertex> moved = movedList(before, after);
    const std::vector<Vertex> padded = paddedList(before, after, rng);
    EXPECT_EQ(safety(g, before, after, faulty), want) << "trial " << trial;
    EXPECT_EQ(safety(g, before, after, faulty, std::span<const Vertex>(moved)),
              want)
        << "trial " << trial;
    EXPECT_EQ(
        safety(g, before, after, faulty, std::span<const Vertex>(padded)),
        want)
        << "trial " << trial;
    seen += want;
  }
  EXPECT_GT(seen, 0u);
  EXPECT_GT(bothEndsMoved, 0u);
}

// The identity transition has no violations, and an empty moved list asks
// about nothing.
TEST(SmmSafetyCheck, IdentityTransitionIsViolationFree) {
  graph::Rng rng(7);
  const Graph g = graph::connectedErdosRenyi(30, 0.2, rng);
  std::vector<PointerState> states(g.order());
  for (Vertex v = 0; v + 1 < g.order(); v += 2) {
    if (!g.hasEdge(v, v + 1)) continue;
    states[v].ptr = v + 1;
    states[v + 1].ptr = v;
  }
  const std::vector<std::uint8_t> faulty(g.order(), 0);
  const auto safety = smmSafetyCheck();
  EXPECT_EQ(safety(g, states, states, faulty), 0u);
  EXPECT_EQ(safety(g, states, states, faulty, std::span<const Vertex>()), 0u);
}

// Adversarial SIS transitions: random memberships, leavers with and
// without an in-set neighbor, joiners, faulty masks.
TEST(SisSafetyCheck, MovedListMatchesWholeTransition) {
  graph::Rng rng(4051);
  const auto safety = sisSafetyCheck();
  std::size_t seen = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const Graph g = randomGraph(trial, rng);
    const std::size_t n = g.order();
    // Sparse sets leave many members without an in-set neighbor.
    const double density = trial % 3 == 0 ? 0.5 : 0.08;
    std::vector<BitState> before(n);
    for (Vertex v = 0; v < n; ++v) before[v].in = rng.chance(density);
    std::vector<BitState> after = before;
    std::vector<std::uint8_t> faulty(n, 0);
    for (Vertex v = 0; v < n; ++v) {
      if (rng.chance(0.3)) after[v].in = !before[v].in;
      if (rng.chance(0.1)) faulty[v] = 1;
    }
    const std::size_t want =
        strandedLeaversByVertices(g, before, after, faulty);
    const std::vector<Vertex> moved = movedList(before, after);
    const std::vector<Vertex> padded = paddedList(before, after, rng);
    EXPECT_EQ(safety(g, before, after, faulty), want) << "trial " << trial;
    EXPECT_EQ(safety(g, before, after, faulty, std::span<const Vertex>(moved)),
              want)
        << "trial " << trial;
    EXPECT_EQ(
        safety(g, before, after, faulty, std::span<const Vertex>(padded)),
        want)
        << "trial " << trial;
    seen += want;
  }
  EXPECT_GT(seen, 0u);
}

// A check built from a four-argument callable has no list form: its
// moved-list call must fall back to the whole transition.
TEST(SafetyCheck, WholeTransitionCheckIgnoresTheMovedList) {
  std::size_t calls = 0;
  const SafetyCheck<BitState> check =
      [&](const Graph&, const std::vector<BitState>& before,
          const std::vector<BitState>&, const std::vector<std::uint8_t>&) {
        ++calls;
        return before.size();
      };
  const Graph g(5);
  const std::vector<BitState> states(g.order());
  const std::vector<std::uint8_t> faulty(g.order(), 0);
  const std::vector<Vertex> moved{1};
  EXPECT_TRUE(static_cast<bool>(check));
  EXPECT_EQ(check(g, states, states, faulty, std::span<const Vertex>(moved)),
            5u);
  EXPECT_EQ(calls, 1u);
  EXPECT_FALSE(static_cast<bool>(SafetyCheck<BitState>{}));
  EXPECT_FALSE(static_cast<bool>(SafetyCheck<BitState>(nullptr)));
}

}  // namespace
}  // namespace selfstab::chaos

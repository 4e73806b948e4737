// The one-pass verifiers against the predicates they fuse.
//
// checkMatchingFixpoint computes type-correctness, the matched pairs,
// matching validity, maximality and aloofness in one pass over vertex
// blocks; isMaximalIndependentSet checks independence and domination in
// one. Both must agree with the serial compositions below on every kind of
// configuration and at every worker count, and must look at every vertex:
// the boundary tests plant a single violation that only its own vertex can
// see, at and around every block edge a power-of-two block size could have.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "analysis/node_types.hpp"
#include "analysis/verifiers.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"

namespace selfstab::analysis {
namespace {

using core::BitState;
using core::PointerState;
using graph::Graph;
using graph::Vertex;

constexpr std::size_t kWorkerCounts[] = {1, 4};

// The composition checkMatchingFixpoint replaced.
MatchingFixpointCheck composedMatchingCheck(
    const Graph& g, const std::vector<PointerState>& states) {
  MatchingFixpointCheck check;
  check.matchedPairs = matchedEdges(g, states).size();
  check.typeCorrect = isTypeCorrect(g, states);
  if (!check.typeCorrect) return check;
  const auto edges = matchedEdges(g, states);
  check.isMatching = isMatching(g, edges);
  check.isMaximal = isMaximalMatching(g, edges);
  const auto types = classifyNodes(g, states);
  check.unmatchedAreAloof =
      std::all_of(types.begin(), types.end(), [](NodeType t) {
        return t == NodeType::M || t == NodeType::A0;
      });
  return check;
}

// The serial predicate isMaximalIndependentSet replaced.
bool serialMaximalIndependentSet(const Graph& g,
                                 const std::vector<Vertex>& members) {
  if (!isIndependentSet(g, members)) return false;
  std::vector<bool> in(g.order(), false);
  for (const Vertex v : members) in[v] = true;
  for (Vertex u = 0; u < g.order(); ++u) {
    if (in[u]) continue;
    const auto nbrs = g.neighbors(u);
    if (std::none_of(nbrs.begin(), nbrs.end(),
                     [&](Vertex v) { return in[v]; })) {
      return false;
    }
  }
  return true;
}

void expectSameCheck(const Graph& g, const std::vector<PointerState>& states,
                     const char* what) {
  const MatchingFixpointCheck want = composedMatchingCheck(g, states);
  for (const std::size_t workers : kWorkerCounts) {
    const MatchingFixpointCheck got =
        detail::checkMatchingFixpoint(g, states, workers);
    SCOPED_TRACE(::testing::Message() << what << ", workers " << workers);
    EXPECT_EQ(got.typeCorrect, want.typeCorrect);
    EXPECT_EQ(got.isMatching, want.isMatching);
    EXPECT_EQ(got.isMaximal, want.isMaximal);
    EXPECT_EQ(got.unmatchedAreAloof, want.unmatchedAreAloof);
    EXPECT_EQ(got.matchedPairs, want.matchedPairs);
    EXPECT_EQ(got.ok(), want.ok());
  }
}

void expectSameMis(const Graph& g, const std::vector<BitState>& states,
                   const char* what) {
  const auto members = membersOf(states);
  const bool want = serialMaximalIndependentSet(g, members);
  for (const std::size_t workers : kWorkerCounts) {
    SCOPED_TRACE(::testing::Message() << what << ", workers " << workers);
    EXPECT_EQ(detail::isMaximalIndependentSet(g, members, workers), want);
  }
}

std::vector<PointerState> stabilizedMatching(const Graph& g, graph::Rng& rng) {
  const core::SmmProtocol smm = core::smmPaper();
  const auto ids = graph::IdAssignment::identity(g.order());
  auto states = engine::randomConfiguration<PointerState>(
      g, rng, core::randomPointerState);
  engine::SyncRunner<PointerState> runner(smm, g, ids);
  EXPECT_TRUE(runner.run(states, 2 * g.order() + 2).stabilized);
  return states;
}

std::vector<BitState> stabilizedSis(const Graph& g, graph::Rng& rng) {
  const core::SisProtocol sis;
  const auto ids = graph::IdAssignment::identity(g.order());
  auto states =
      engine::randomConfiguration<BitState>(g, rng, core::randomBitState);
  engine::SyncRunner<BitState> runner(sis, g, ids);
  EXPECT_TRUE(runner.run(states, g.order() + 1).stabilized);
  return states;
}

// Vertices at and around every multiple of 256, plus both ends.
std::vector<Vertex> blockEdges(std::size_t n) {
  std::vector<Vertex> out{0, static_cast<Vertex>(n - 1)};
  for (std::size_t k = 256; k < n; k += 256) {
    out.push_back(static_cast<Vertex>(k - 1));
    out.push_back(static_cast<Vertex>(k));
  }
  return out;
}

TEST(FusedMatchingCheck, EqualsCompositionOnEveryKindOfConfiguration) {
  graph::Rng rng(1901);
  const std::vector<Graph> graphs{
      graph::connectedRandomGeometric(20000, 0.02, rng),
      graph::connectedErdosRenyi(3000, 0.004, rng), graph::star(500),
      graph::path(2000), Graph(300)};
  for (const Graph& g : graphs) {
    const std::size_t n = g.order();
    expectSameCheck(g,
                    engine::randomConfiguration<PointerState>(
                        g, rng, core::randomPointerState),
                    "random");
    const auto fixpoint = stabilizedMatching(g, rng);
    expectSameCheck(g, fixpoint, "stabilized");
    EXPECT_TRUE(detail::checkMatchingFixpoint(g, fixpoint, 4).ok());

    auto corrupted = fixpoint;
    for (std::size_t i = 0; i < n / 50 + 1; ++i) {
      const auto v = static_cast<Vertex>(rng.below(n));
      corrupted[v] = core::randomPointerState(v, g, rng);
    }
    expectSameCheck(g, corrupted, "corrupted");

    // Wild pointers: at a non-neighbor, at itself, past the last vertex.
    auto wild = fixpoint;
    const auto a = static_cast<Vertex>(rng.below(n));
    wild[a].ptr = static_cast<Vertex>((a + n / 2) % n);
    if (g.hasEdge(a, wild[a].ptr)) wild[a].ptr = a;
    expectSameCheck(g, wild, "non-neighbor pointer");
    wild = fixpoint;
    wild[a].ptr = static_cast<Vertex>(n + 7);
    expectSameCheck(g, wild, "out-of-range pointer");
  }
}

TEST(FusedMatchingCheck, StatesOfTheWrongSizeAreNotTypeCorrect) {
  const Graph g = graph::path(6);
  const std::vector<PointerState> states(5);
  for (const std::size_t workers : kWorkerCounts) {
    const auto check = detail::checkMatchingFixpoint(g, states, workers);
    EXPECT_FALSE(check.typeCorrect);
    EXPECT_FALSE(check.ok());
  }
}

// On a path matched as (0,1), (2,3), ...: a pointer at a non-neighbor is
// visible at its own vertex only, and a broken pair (a one-way pointer,
// then two null ones) at the pair's two vertices only.
TEST(FusedMatchingCheck, EveryVertexIsChecked) {
  const std::size_t n = 3 * 4096 + 124;
  const Graph g = graph::path(n);
  std::vector<PointerState> matched(n);
  for (Vertex v = 0; v + 1 < n; v += 2) {
    matched[v].ptr = v + 1;
    matched[v + 1].ptr = v;
  }
  ASSERT_TRUE(detail::checkMatchingFixpoint(g, matched, 4).ok());
  for (const Vertex v : blockEdges(n)) {
    SCOPED_TRACE(::testing::Message() << "vertex " << v);
    auto states = matched;
    states[v].ptr = v >= 3 ? v - 3 : v + 3;  // a non-neighbor
    expectSameCheck(g, states, "type error");

    // Null v's pointer: v and its partner are adjacent and unmatched, and
    // the partner's pointer is not returned. Then null the partner's too.
    states = matched;
    const Vertex partner = matched[v].ptr;
    states[v].ptr = graph::kNoVertex;
    expectSameCheck(g, states, "broken pair");
    EXPECT_EQ(detail::checkMatchingFixpoint(g, states, 4).matchedPairs,
              n / 2 - 1);
    states[partner].ptr = graph::kNoVertex;
    expectSameCheck(g, states, "two unmatched neighbors");
  }
}

TEST(FusedMisCheck, EqualsSerialPredicate) {
  graph::Rng rng(1907);
  const std::vector<Graph> graphs{
      graph::connectedRandomGeometric(20000, 0.02, rng),
      graph::connectedErdosRenyi(3000, 0.004, rng), graph::star(500),
      graph::path(2000), Graph(300)};
  for (const Graph& g : graphs) {
    const std::size_t n = g.order();
    expectSameMis(
        g, engine::randomConfiguration<BitState>(g, rng, core::randomBitState),
        "random");
    const auto fixpoint = stabilizedSis(g, rng);
    expectSameMis(g, fixpoint, "stabilized");
    EXPECT_TRUE(
        detail::isMaximalIndependentSet(g, membersOf(fixpoint), 4));
    auto flipped = fixpoint;
    for (std::size_t i = 0; i < 3; ++i) {
      const auto v = static_cast<Vertex>(rng.below(n));
      flipped[v].in = !flipped[v].in;
    }
    expectSameMis(g, flipped, "flipped");
    expectSameMis(g, std::vector<BitState>(n), "empty set");
  }
}

// On a path whose members are every other vertex, dropping one member
// leaves that vertex alone undominated, and adding a neighbor of a member
// breaks independence at two adjacent vertices.
TEST(FusedMisCheck, EveryVertexIsChecked) {
  const std::size_t n = 3 * 4096 + 124;
  const Graph g = graph::path(n);
  for (const Vertex v : blockEdges(n)) {
    SCOPED_TRACE(::testing::Message() << "vertex " << v);
    std::vector<BitState> states(n);
    for (Vertex u = v % 2; u < n; u += 2) states[u].in = true;
    ASSERT_TRUE(detail::isMaximalIndependentSet(g, membersOf(states), 4));
    states[v].in = false;
    expectSameMis(g, states, "undominated");
    states[v].in = true;
    states[v == 0 ? 1 : v - 1].in = true;
    expectSameMis(g, states, "dependent");
  }
}

}  // namespace
}  // namespace selfstab::analysis

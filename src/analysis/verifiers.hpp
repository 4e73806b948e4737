// Predicate verifiers: is the stabilized configuration actually a maximal
// matching / maximal independent set / minimal dominating set / proper
// coloring? Every experiment and most tests end with one of these checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/bfs_tree.hpp"
#include "core/coloring.hpp"
#include "core/leader_tree.hpp"
#include "core/dominating_set.hpp"
#include "core/matching_state.hpp"
#include "core/sis.hpp"
#include "graph/graph.hpp"
#include "graph/id_order.hpp"

namespace selfstab::analysis {

// ---------------------------------------------------------------- matching

/// Mutually-pointing pairs i <-> j, each reported once with u < v.
[[nodiscard]] std::vector<graph::Edge> matchedEdges(
    const graph::Graph& g, const std::vector<core::PointerState>& states);

/// Pairwise-disjoint edges of g?
[[nodiscard]] bool isMatching(const graph::Graph& g,
                              std::span<const graph::Edge> edges);

/// No g-edge can be added while keeping it a matching?
[[nodiscard]] bool isMaximalMatching(const graph::Graph& g,
                                     std::span<const graph::Edge> edges);

/// All the fixpoint properties of Lemma 8 at once.
struct MatchingFixpointCheck {
  bool typeCorrect = false;       ///< pointers are Λ or neighbors
  bool isMatching = false;        ///< matched pairs are disjoint g-edges
  bool isMaximal = false;         ///< Lemma 8: M is a maximal matching
  bool unmatchedAreAloof = false; ///< Lemma 8: non-M nodes have null
                                  ///< pointers and nobody points at them
  /// matchedEdges(g, states).size(), whatever the verdict (0 when `states`
  /// does not hold one state per vertex).
  std::size_t matchedPairs = 0;

  [[nodiscard]] bool ok() const noexcept {
    return typeCorrect && isMatching && isMaximal && unmatchedAreAloof;
  }
};

/// One pass over vertex blocks on parallel::workersFor(n, kVerifyGrain)
/// workers. When the states are not type-correct only typeCorrect (false)
/// and matchedPairs are meaningful; the other verdicts stay false.
[[nodiscard]] MatchingFixpointCheck checkMatchingFixpoint(
    const graph::Graph& g, const std::vector<core::PointerState>& states);

/// Vertices per worker of the whole-graph verifiers (checkMatchingFixpoint,
/// isMaximalIndependentSet): below 2 × this they run inline. Measured, see
/// docs/PERFORMANCE.md.
inline constexpr std::size_t kVerifyGrain = 100000;

// ------------------------------------------------------------ vertex sets

[[nodiscard]] std::vector<graph::Vertex> membersOf(
    const std::vector<core::BitState>& states);
[[nodiscard]] std::vector<graph::Vertex> membersOf(
    const std::vector<core::DomState>& states);

[[nodiscard]] bool isIndependentSet(const graph::Graph& g,
                                    std::span<const graph::Vertex> members);
/// Independent and dominating, checked in one pass over vertex blocks on
/// parallel::workersFor(n, kVerifyGrain) workers.
[[nodiscard]] bool isMaximalIndependentSet(
    const graph::Graph& g, std::span<const graph::Vertex> members);

[[nodiscard]] bool isDominatingSet(const graph::Graph& g,
                                   std::span<const graph::Vertex> members);
/// Dominating and no proper subset dominates (checked via the
/// private-neighbor characterization, O(n + m)).
[[nodiscard]] bool isMinimalDominatingSet(
    const graph::Graph& g, std::span<const graph::Vertex> members);

// --------------------------------------------------------------- coloring

[[nodiscard]] bool isProperColoring(const graph::Graph& g,
                                    const std::vector<std::uint32_t>& colors);
[[nodiscard]] bool isProperColoring(
    const graph::Graph& g, const std::vector<core::ColorState>& states);
[[nodiscard]] std::uint32_t colorCount(
    const std::vector<core::ColorState>& states);

// ------------------------------------------------------------- BFS tree

/// Verifies a stabilized BfsTreeProtocol configuration against ground truth:
/// the root holds (0, Λ); every reachable node holds its exact BFS distance
/// and points at the minimum-ID neighbor one step closer to the root;
/// unreachable nodes hold (cap, Λ).
[[nodiscard]] bool isShortestPathTree(const graph::Graph& g,
                                      const graph::IdAssignment& ids,
                                      graph::Vertex root, std::uint32_t cap,
                                      const std::vector<core::TreeState>& states);

/// Verifies a stabilized LeaderTreeProtocol configuration: within every
/// connected component, all nodes agree that the component's maximum-ID node
/// is the root, hold their exact BFS distance from it, and point at the
/// minimum-ID neighbor one step closer (the leader itself holds (0, Λ)).
[[nodiscard]] bool isLeaderTree(const graph::Graph& g,
                                const graph::IdAssignment& ids,
                                const std::vector<core::LeaderState>& states);

namespace detail {
/// The parallel verifiers with an explicit worker count (1 runs inline);
/// tests compare worker counts against each other and against the serial
/// predicates they fuse.
[[nodiscard]] MatchingFixpointCheck checkMatchingFixpoint(
    const graph::Graph& g, const std::vector<core::PointerState>& states,
    std::size_t workers);
[[nodiscard]] bool isMaximalIndependentSet(
    const graph::Graph& g, std::span<const graph::Vertex> members,
    std::size_t workers);
}  // namespace detail

}  // namespace selfstab::analysis

// Protocol-specific safety predicates for fault campaigns.
//
// Containment asks how far a fault's effects travel; safety asks whether
// they *harm* nodes that were doing fine. Each check inspects one committed
// round transition (before -> after) and counts transitions the protocol
// should never inflict on a non-faulty node; an identity transition harms
// no one, so campaigns do not ask about rounds in which nothing changed.
// For the paper's protocols both checks are invariants — campaigns gate
// them at exactly zero:
//
//  * SMM   a matched edge (mutual pointers) between two non-faulty nodes is
//          never broken: a married node has no enabled rule, so only a fault
//          at one endpoint can separate the pair.
//  * SIS   a non-faulty member with no in-set neighbor never leaves the set:
//          SIS's only leave rule requires a dominating in-set neighbor.
//
// Both look only at the vertices they are given: every vertex for the
// whole-transition call, the round's moved list for a campaign's, so a
// campaign round costs O(|moved| · deg) instead of O(n). The O(n)
// definitions live on as oracles in tests/chaos/test_safety.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chaos/monitors.hpp"
#include "core/matching_state.hpp"
#include "core/sis.hpp"
#include "graph/graph.hpp"

namespace selfstab::chaos {

namespace detail {

/// Matched pairs {v, w} — mutual pointers over a g-edge, both ends
/// non-faulty — that the transition breaks, counted over the `listed`
/// vertices. A pair breaks only if one of its ends changed, so every such
/// pair has a changed, listed end; it is counted from the smaller of its
/// changed ends, once.
template <typename Vertices>
std::size_t brokenPairs(const graph::Graph& g,
                        const std::vector<core::PointerState>& before,
                        const std::vector<core::PointerState>& after,
                        const std::vector<std::uint8_t>& faulty,
                        const Vertices& listed) {
  const std::size_t n = before.size();
  std::size_t violations = 0;
  for (const graph::Vertex v : listed) {
    if (before[v] == after[v]) continue;
    const graph::Vertex w = before[v].ptr;
    if (w >= n || w == v || before[w].ptr != v) continue;
    if (w < v && !(before[w] == after[w])) continue;  // w counts it
    if (faulty[v] != 0 || faulty[w] != 0 || !g.hasEdge(v, w)) continue;
    if (after[v].ptr != w || after[w].ptr != v) ++violations;
  }
  return violations;
}

/// Non-faulty listed members that leave the set without an in-set
/// neighbor before the round.
template <typename Vertices>
std::size_t strandedLeavers(const graph::Graph& g,
                            const std::vector<core::BitState>& before,
                            const std::vector<core::BitState>& after,
                            const std::vector<std::uint8_t>& faulty,
                            const Vertices& listed) {
  std::size_t violations = 0;
  for (const graph::Vertex v : listed) {
    if (faulty[v] != 0) continue;
    if (!before[v].in || after[v].in) continue;  // only set-leavers
    bool hadInNeighbor = false;
    for (const graph::Vertex w : g.neighbors(v)) {
      if (before[w].in) {
        hadInNeighbor = true;
        break;
      }
    }
    if (!hadInNeighbor) ++violations;
  }
  return violations;
}

}  // namespace detail

/// SafetyCheck for the matching protocols (PointerState).
[[nodiscard]] inline SafetyCheck<core::PointerState> smmSafetyCheck() {
  return SafetyCheck<core::PointerState>::overList(
      [](const graph::Graph& g, const std::vector<core::PointerState>& before,
         const std::vector<core::PointerState>& after,
         const std::vector<std::uint8_t>& faulty, const auto& listed) {
        return detail::brokenPairs(g, before, after, faulty, listed);
      });
}

/// SafetyCheck for SIS (BitState).
[[nodiscard]] inline SafetyCheck<core::BitState> sisSafetyCheck() {
  return SafetyCheck<core::BitState>::overList(
      [](const graph::Graph& g, const std::vector<core::BitState>& before,
         const std::vector<core::BitState>& after,
         const std::vector<std::uint8_t>& faulty, const auto& listed) {
        return detail::strandedLeavers(g, before, after, faulty, listed);
      });
}

}  // namespace selfstab::chaos

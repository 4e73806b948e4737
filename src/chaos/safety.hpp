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
#pragma once

#include <cstdint>
#include <vector>

#include "chaos/monitors.hpp"
#include "core/matching_state.hpp"
#include "core/sis.hpp"
#include "graph/graph.hpp"

namespace selfstab::chaos {

/// SafetyCheck for the matching protocols (PointerState).
[[nodiscard]] inline SafetyCheck<core::PointerState> smmSafetyCheck() {
  return [](const graph::Graph& g,
            const std::vector<core::PointerState>& before,
            const std::vector<core::PointerState>& after,
            const std::vector<std::uint8_t>& faulty) {
    // A node has at most one mutual partner, so walking each node's
    // pointer visits every matched edge once (from its smaller end) without
    // materializing the edge list.
    std::size_t violations = 0;
    for (graph::Vertex v = 0; v < before.size(); ++v) {
      const graph::Vertex w = before[v].ptr;
      if (w <= v || w >= before.size() || before[w].ptr != v) continue;
      if (faulty[v] != 0 || faulty[w] != 0 || !g.hasEdge(v, w)) continue;
      if (after[v].ptr != w || after[w].ptr != v) ++violations;
    }
    return violations;
  };
}

/// SafetyCheck for SIS (BitState).
[[nodiscard]] inline SafetyCheck<core::BitState> sisSafetyCheck() {
  return [](const graph::Graph& g, const std::vector<core::BitState>& before,
            const std::vector<core::BitState>& after,
            const std::vector<std::uint8_t>& faulty) {
    std::size_t violations = 0;
    for (graph::Vertex v = 0; v < before.size(); ++v) {
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
  };
}

}  // namespace selfstab::chaos

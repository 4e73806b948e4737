// Extension: self-stabilizing BFS (shortest-path) spanning tree.
//
// The paper's opening motivation: "a minimal spanning tree must be
// maintained to minimize latency and bandwidth requirements of
// multicast/broadcast messages" — and its references [13, 14] are exactly
// self-stabilizing multicast/shortest-path-tree protocols for mobile
// networks by the same group. We implement the classic beacon-model version:
// each node publishes (dist, parent) and repairs them from its neighbors'
// beacons.
//
//   root  : (dist, parent) != (0, Λ)                     ⇒ (0, Λ)
//   other : (dist, parent) != (d, p) where
//           d = min(cap, 1 + min_{j∈N(i)} dist(j)),
//           p = the min-ID neighbor attaining the minimum (Λ if d == cap)
//                                                        ⇒ (d, p)
//
// `cap` is an upper bound on any achievable distance (the paper's model
// fixes the node set, so n is a valid bound); corrupt underestimates climb
// by at least one per round until they hit truth or the cap, giving O(cap)
// synchronous stabilization from arbitrary states and O(diameter) from
// clean ones. At the fixpoint dist equals the true BFS distance from the
// root and the parent pointers form a shortest-path tree (min-ID tie-break
// makes it unique).
#pragma once

#include <cstdint>
#include <string>

#include "engine/protocol.hpp"
#include "graph/rng.hpp"

namespace selfstab::core {

struct TreeState {
  std::uint32_t dist = 0;
  graph::Vertex parent = graph::kNoVertex;

  friend constexpr bool operator==(const TreeState&,
                                   const TreeState&) = default;

  friend constexpr std::uint64_t hashValue(const TreeState& s) noexcept {
    return hashCombine(s.dist, static_cast<std::uint64_t>(s.parent) + 1);
  }

  /// The vertex-valued fields, for engine::toInternalFrame.
  template <typename Fn>
  friend constexpr void mapVertices(TreeState& s, const Fn& fn) {
    fn(s.parent);
  }
};

/// Arbitrary (possibly nonsensical) tree state, for fault injection. On a
/// labelled graph the parent is an external number (engine/fault.hpp).
inline TreeState randomTreeState(graph::Vertex v, const graph::Graph& g,
                                 Rng& rng) {
  (void)v;
  TreeState s;
  s.dist = static_cast<std::uint32_t>(rng.below(g.order() + 2));
  const std::uint64_t pick = rng.below(g.order() + 1);
  s.parent = pick == g.order() ? graph::kNoVertex
                               : static_cast<graph::Vertex>(pick);
  return s;
}

class BfsTreeProtocol final : public engine::Protocol<TreeState> {
 public:
  /// `rootId` designates the root by its unique ID (any node will do; ad hoc
  /// deployments typically use a gateway). `cap` must be an upper bound on
  /// every achievable distance, e.g. the number of nodes; it also serves as
  /// the "unreachable" marker.
  BfsTreeProtocol(graph::Id rootId, std::uint32_t cap)
      : rootId_(rootId), cap_(cap) {
    name_ = "bfs-tree(root=" + std::to_string(rootId) +
            ",cap=" + std::to_string(cap) + ")";
  }

  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] std::optional<TreeState> onRound(
      const engine::LocalView<TreeState>& view) const override {
    const TreeState target = targetState(view);
    if (view.state() == target) return std::nullopt;
    return target;
  }

  [[nodiscard]] TreeState initialState(graph::Vertex) const override {
    return TreeState{cap_, graph::kNoVertex};
  }

  [[nodiscard]] graph::Id rootId() const noexcept { return rootId_; }
  [[nodiscard]] std::uint32_t cap() const noexcept { return cap_; }

 private:
  [[nodiscard]] TreeState targetState(
      const engine::LocalView<TreeState>& view) const {
    if (view.selfId == rootId_) return TreeState{0, graph::kNoVertex};
    // 64-bit accumulation so corrupt huge dists cannot overflow.
    std::uint64_t best = cap_;
    graph::Vertex parent = graph::kNoVertex;
    graph::Id parentId = 0;
    for (const auto& nbr : view.neighbors) {
      const std::uint64_t d = std::uint64_t{nbr.state->dist} + 1;
      if (d < best || (d == best && parent != graph::kNoVertex &&
                       nbr.id < parentId)) {
        best = d;
        parent = nbr.vertex;
        parentId = nbr.id;
      }
    }
    if (best >= cap_) return TreeState{cap_, graph::kNoVertex};
    return TreeState{static_cast<std::uint32_t>(best), parent};
  }

  graph::Id rootId_;
  std::uint32_t cap_;
  std::string name_;
};

}  // namespace selfstab::core

// Extension: self-stabilizing leader election + spanning tree (rootless).
//
// BfsTreeProtocol needs a configured root; in a real ad hoc deployment no
// such node exists a priori. The classic composition elects the maximum-ID
// node as leader while simultaneously building a BFS tree rooted at it:
// every node publishes (root, dist, parent) and adopts the best offer in its
// closed neighborhood, ordered by (larger root ID, then smaller distance):
//
//   candidates(i) = { (id(i), 0, Λ) } ∪
//                   { (root_j, dist_j + 1, j) : j ∈ N(i), dist_j + 1 < cap }
//   rule: state(i) != max(candidates)  ⇒  state(i) := max(candidates)
//
// The distance cap kills the classical "fake root" problem: a corrupt state
// advertising a non-existent large root ID keeps propagating only with
// strictly growing distance, so it drains out of the system within cap
// rounds, after which the true maximum ID wins everywhere. Stabilizes in
// O(cap + diameter) synchronous rounds; at the fixpoint every node agrees
// on root = max ID and (dist, parent) form the BFS tree of the leader
// (min-ID parent tie-break).
#pragma once

#include <cstdint>
#include <string>

#include "engine/protocol.hpp"
#include "graph/rng.hpp"

namespace selfstab::core {

struct LeaderState {
  graph::Id root = 0;
  std::uint32_t dist = 0;
  graph::Vertex parent = graph::kNoVertex;

  friend constexpr bool operator==(const LeaderState&,
                                   const LeaderState&) = default;

  friend constexpr std::uint64_t hashValue(const LeaderState& s) noexcept {
    return hashCombine(hashCombine(s.root, s.dist),
                       static_cast<std::uint64_t>(s.parent) + 1);
  }

  /// The vertex-valued fields, for engine::toInternalFrame.
  template <typename Fn>
  friend constexpr void mapVertices(LeaderState& s, const Fn& fn) {
    fn(s.parent);
  }
};

/// Garbage state including fake root IDs that no node owns — the classical
/// hard case for leader election. On a labelled graph the parent is an
/// external number (engine/fault.hpp).
inline LeaderState randomLeaderState(graph::Vertex v, const graph::Graph& g,
                                     Rng& rng) {
  (void)v;
  LeaderState s;
  s.root = rng.next();  // almost surely a fake, very large root ID
  s.dist = static_cast<std::uint32_t>(rng.below(g.order() + 2));
  const std::uint64_t pick = rng.below(g.order() + 1);
  s.parent = pick == g.order() ? graph::kNoVertex
                               : static_cast<graph::Vertex>(pick);
  return s;
}

/// The target state of the leader-tree rule: the lexicographically best of
/// the node's own candidacy (selfId, 0, Λ) and every neighbor offer with
/// dist + 1 < cap, ordered by (larger root, smaller dist, smaller parent
/// ID). `tree` projects a neighbor's state onto its LeaderState, so
/// protocols stacking extra fields on it (core/aggregation.hpp) share the
/// rule without copying their views.
template <typename State, typename Projection>
LeaderState bestLeaderCandidate(const engine::LocalView<State>& view,
                                std::uint32_t cap, Projection tree) {
  LeaderState best{view.selfId, 0, graph::kNoVertex};
  graph::Id bestParentId = 0;
  for (const auto& nbr : view.neighbors) {
    const LeaderState& advertised = tree(*nbr.state);
    const std::uint64_t d = std::uint64_t{advertised.dist} + 1;
    if (d >= cap) continue;  // drained: too far to be real
    const LeaderState offer{advertised.root, static_cast<std::uint32_t>(d),
                            nbr.vertex};
    const bool better =
        offer.root > best.root ||
        (offer.root == best.root && offer.dist < best.dist) ||
        (offer.root == best.root && offer.dist == best.dist &&
         best.parent != graph::kNoVertex && nbr.id < bestParentId);
    if (better) {
      best = offer;
      bestParentId = nbr.id;
    }
  }
  return best;
}

class LeaderTreeProtocol final : public engine::Protocol<LeaderState> {
 public:
  /// `cap` bounds every achievable distance (the node count works).
  explicit LeaderTreeProtocol(std::uint32_t cap) : cap_(cap) {
    name_ = "leader-tree(cap=" + std::to_string(cap) + ")";
  }

  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] std::optional<LeaderState> onRound(
      const engine::LocalView<LeaderState>& view) const override {
    const LeaderState best = bestLeaderCandidate(
        view, cap_, [](const LeaderState& s) -> const LeaderState& {
          return s;
        });
    if (view.state() == best) return std::nullopt;
    return best;
  }

  [[nodiscard]] LeaderState initialState(graph::Vertex) const override {
    // Clean start: every node is its own candidate; the protocol repairs
    // the root field on the first round anyway, so (0,0,Λ) is fine too —
    // but self-candidacy converges faster and is the natural deployment.
    return LeaderState{0, 0, graph::kNoVertex};
  }

  [[nodiscard]] std::uint32_t cap() const noexcept { return cap_; }

 private:
  std::uint32_t cap_;
  std::string name_;
};

}  // namespace selfstab::core

// Extension: self-stabilizing convergecast (aggregation) over the leader
// tree — protocol composition.
//
// The paper's introduction motivates spanning trees for "echo-based
// distributed algorithms" (refs [1]-[4]): waves that aggregate a value from
// the whole network at a root. This protocol composes two layers in one
// state, the classic fair-composition pattern of self-stabilization:
//
//   layer 1 (tree):  the rootless leader-tree rule of leader_tree.hpp;
//   layer 2 (sum):   every node publishes the (sum, count) aggregate of its
//                    subtree: its own sensor reading plus the published
//                    aggregates of its *children* — the neighbors whose
//                    parent pointer names it:
//
//     agg(i) = reading(i) (+) Σ { agg(j) : j ∈ N(i), parent(j) = i }
//
// Layer 2 depends only on layer 1's output; once the tree is stable the
// aggregates settle bottom-up in depth(T) further rounds, and any corrupt
// aggregate is recomputed away. At the global fixpoint the leader's
// (sum, count) is exactly the component-wide total and node count — a
// continuously self-healing network monitor.
//
// Sensor readings live *outside* the protocol (they are inputs, not
// protocol state): the protocol observes them through a pointer, so a
// deployment can change readings mid-run and the aggregate re-stabilizes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/leader_tree.hpp"
#include "engine/protocol.hpp"

namespace selfstab::core {

struct AggregateState {
  LeaderState tree;
  std::uint64_t sum = 0;    ///< Σ readings over the claimed subtree
  std::uint32_t count = 0;  ///< node count of the claimed subtree

  friend constexpr bool operator==(const AggregateState&,
                                   const AggregateState&) = default;

  friend constexpr std::uint64_t hashValue(const AggregateState& s) noexcept {
    return hashCombine(hashValue(s.tree), hashCombine(s.sum, s.count));
  }
};

inline AggregateState randomAggregateState(graph::Vertex v,
                                           const graph::Graph& g, Rng& rng) {
  AggregateState s;
  s.tree = randomLeaderState(v, g, rng);
  s.sum = rng.next();
  s.count = static_cast<std::uint32_t>(rng.below(2 * g.order() + 1));
  return s;
}

class AggregationProtocol final : public engine::Protocol<AggregateState> {
 public:
  /// `readings` must outlive the protocol and hold one value per vertex;
  /// the caller may mutate it between rounds (new sensor samples) and the
  /// aggregate re-stabilizes.
  AggregationProtocol(std::uint32_t cap,
                      const std::vector<std::uint64_t>* readings)
      : cap_(cap), readings_(readings) {
    name_ = "aggregation(cap=" + std::to_string(cap) + ")";
  }

  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] std::optional<AggregateState> onRound(
      const engine::LocalView<AggregateState>& view) const override {
    // Layer 1: the leader-tree target.
    AggregateState target;
    target.tree = bestLeaderCandidate(
        view, cap_, [](const AggregateState& s) -> const LeaderState& {
          return s.tree;
        });

    // Layer 2: aggregate own reading with the children's published values.
    // Children are recognized from the *current* neighbor states; during
    // transients the sums are garbage-in/garbage-out, but they become exact
    // once the parent pointers below stabilize.
    target.sum = (*readings_)[view.self];
    target.count = 1;
    for (const auto& nbr : view.neighbors) {
      if (nbr.state->tree.parent == view.self) {
        target.sum += nbr.state->sum;
        target.count += nbr.state->count;
      }
    }

    if (view.state() == target) return std::nullopt;
    return target;
  }

  /// The readings are inputs outside N[v]'s states: a new sample changes a
  /// node's decision while its neighborhood stands still, so the executors
  /// must not skip nodes or rounds on that evidence.
  [[nodiscard]] bool readsBeyondNeighborhood() const noexcept override {
    return true;
  }

  [[nodiscard]] AggregateState initialState(graph::Vertex v) const override {
    AggregateState s;
    s.sum = (*readings_)[v];
    s.count = 1;
    return s;
  }

 private:
  std::uint32_t cap_;
  const std::vector<std::uint64_t>* readings_;
  std::string name_;
};

}  // namespace selfstab::core

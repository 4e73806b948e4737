// Daemon refinement: running central-daemon algorithms synchronously.
//
// Section 3 of the paper notes that Hsu & Huang's central-daemon matching
// algorithm [15] "may be converted into a synchronous model protocol using
// the techniques of [1, 16], [but] the resulting protocol is not as fast" as
// SMM. This header implements that conversion: a randomized local mutual
// exclusion wrapper in the style of Beauquier–Datta–Gradinariu–Magniette
// (DISC 2000, the paper's reference [16]).
//
// Every round, each node derives a priority hash(roundKey, id) — the same
// fresh random priority at every node, recomputed each round because
// roundKey changes. A node executes its inner rule only if it is privileged
// AND its (priority, id) pair is strictly largest in its closed neighborhood.
// Movers therefore form an independent set; since an inner rule reads only
// N[i] and writes only i, any set of pairwise-non-adjacent simultaneous moves
// is serializable, so each synchronous round corresponds to a legal sequence
// of central-daemon moves and the inner algorithm's central-daemon
// correctness transfers. The price is exactly what the paper predicts: many
// privileged nodes wait for their neighborhood lock, so stabilization takes
// more rounds than SMM (measured by bench/exp_baseline_comparison).
#pragma once

#include <string>
#include <utility>

#include "engine/protocol.hpp"
#include "graph/rng.hpp"

namespace selfstab::core {

/// Wraps an inner protocol with per-round randomized neighborhood locks.
template <typename Inner>
class Synchronized final
    : public engine::Protocol<typename Inner::StateType> {
 public:
  using State = typename Inner::StateType;

  template <typename... Args>
  explicit Synchronized(Args&&... args)
      : inner_(std::forward<Args>(args)...),
        name_(std::string("synchronized[") + std::string(inner_.name()) + "]") {}

  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] std::optional<State> onRound(
      const engine::LocalView<State>& view) const override {
    auto move = inner_.onRound(view);
    if (!move) return std::nullopt;
    const auto mine = priority(view.roundKey, view.selfId);
    for (const auto& nbr : view.neighbors) {
      if (priority(view.roundKey, nbr.id) > mine) return std::nullopt;
    }
    return move;
  }

  [[nodiscard]] State initialState(graph::Vertex v) const override {
    return inner_.initialState(v);
  }

  /// Stability is a property of the *inner* rules: a node that lost its
  /// neighborhood lottery this round is delayed, not stable.
  [[nodiscard]] bool isStable(
      const engine::LocalView<State>& view) const override {
    return inner_.isStable(view);
  }

  /// The lottery re-draws priorities from roundKey every round, so a node's
  /// decision can flip with an unchanged neighborhood — the executors must
  /// not skip nodes or rounds for this wrapper.
  [[nodiscard]] bool readsBeyondNeighborhood() const noexcept override {
    return true;
  }

  [[nodiscard]] const Inner& inner() const noexcept { return inner_; }

 private:
  /// Per-round lottery ticket; the id component breaks hash ties, keeping
  /// the order strict (ids are unique).
  static std::pair<std::uint64_t, graph::Id> priority(std::uint64_t roundKey,
                                                      graph::Id id) noexcept {
    return {mix64(hashCombine(roundKey, id)), id};
  }

  Inner inner_;
  std::string name_;
};

}  // namespace selfstab::core

// The protocol abstraction.
//
// A self-stabilizing protocol in the paper's model is a set of guarded rules
// evaluated by each node against (a) its own state and (b) the states its
// neighbors reported in their last beacon messages (Section 2). We capture
// exactly that locality: a rule sees a LocalView — self state plus one
// (id, state) pair per neighbor — and nothing else. The same Protocol object
// therefore runs unchanged under
//   * the abstract synchronous round executor   (engine/sync_runner.hpp),
//   * the classical central/distributed daemons (engine/daemons.hpp), and
//   * the discrete-event beacon simulator       (adhoc/network.hpp),
// which is the fidelity claim of this reproduction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "graph/graph.hpp"
#include "graph/id_order.hpp"

namespace selfstab::engine {

/// One neighbor as seen through its most recent beacon.
template <typename State>
struct NeighborRef {
  graph::Vertex vertex;  ///< dense index (simulation bookkeeping only)
  graph::Id id;          ///< the unique ID the algorithms compare
  const State* state;    ///< neighbor's last reported state
};

/// Everything a node may legally consult when evaluating its rules.
template <typename State>
struct LocalView {
  graph::Vertex self = graph::kNoVertex;
  graph::Id selfId = 0;
  const State* selfState = nullptr;

  /// Neighbors in increasing vertex order (the engine guarantees this; the
  /// beacon simulator sorts its caches the same way).
  std::span<const NeighborRef<State>> neighbors;

  /// Deterministic per-(run, round) entropy, identical at every node. Used
  /// by randomized wrappers (e.g. local mutual exclusion) to derive
  /// per-round priorities as hash(roundKey, id). Plain protocols ignore it.
  std::uint64_t roundKey = 0;

  [[nodiscard]] const State& state() const noexcept { return *selfState; }

  /// Looks up a neighbor entry by vertex; nullptr if v is not a neighbor.
  /// Neighbors are sorted by vertex (guaranteed above), so this is a binary
  /// search — O(log deg) instead of the old linear scan.
  [[nodiscard]] const NeighborRef<State>* find(graph::Vertex v) const noexcept {
    const auto it = std::lower_bound(
        neighbors.begin(), neighbors.end(), v,
        [](const NeighborRef<State>& nbr, graph::Vertex x) noexcept {
          return nbr.vertex < x;
        });
    if (it != neighbors.end() && it->vertex == v) return &*it;
    return nullptr;
  }
};

/// A distributed protocol: per-node guarded rules over a LocalView.
///
/// Contract: onRound() returns the node's *new* state if some rule is
/// enabled (the node is privileged and moves), or nullopt if no rule is
/// enabled. A returned state must differ from the current one — a rule whose
/// action is a no-op would make fixpoint detection meaningless.
template <typename State>
class Protocol {
 public:
  using StateType = State;

  Protocol() = default;
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;
  virtual ~Protocol() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  [[nodiscard]] virtual std::optional<State> onRound(
      const LocalView<State>& view) const = 0;

  /// True if no rule of the node is enabled, *ignoring any scheduling layer*
  /// (locks, randomized suppression). Fixpoint detection uses this: a
  /// randomized wrapper like core::Synchronized may produce a zero-move
  /// round while inner rules are still enabled, which must not count as
  /// stabilization. The default matches deterministic protocols, where
  /// "cannot move" and "no rule enabled" coincide.
  [[nodiscard]] virtual bool isStable(const LocalView<State>& view) const {
    return !onRound(view).has_value();
  }

  /// True if a node's decision may change while the states of its closed
  /// neighborhood N[v] (and the topology) stay unchanged: the protocol
  /// reads LocalView::roundKey (randomized wrappers like core::Synchronized
  /// re-draw per-round priorities) or inputs held outside the protocol
  /// state (core::AggregationProtocol's sensor readings). The executors rely
  /// on the converse for local protocols — "unchanged N[v] => unchanged
  /// decision" — to skip work: SyncRunner evaluates only the closed
  /// neighborhoods of the last round's moves and edits (a round with none
  /// is skipped), the beacon simulator's active schedule evaluates only
  /// dirty nodes, and fault campaigns re-check masked stability only around
  /// changes. A protocol returning true opts out of all three.
  [[nodiscard]] virtual bool readsBeyondNeighborhood() const noexcept {
    return false;
  }

  /// The canonical "clean" starting state (most protocols: all-null /
  /// all-zero). Self-stabilization of course never relies on it.
  [[nodiscard]] virtual State initialState(graph::Vertex v) const {
    (void)v;
    return State{};
  }
};

/// True if the node described by `view` is privileged under `p`.
template <typename State>
[[nodiscard]] bool isEnabled(const Protocol<State>& p,
                             const LocalView<State>& view) {
  return p.onRound(view).has_value();
}

}  // namespace selfstab::engine

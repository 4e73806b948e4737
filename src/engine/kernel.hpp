// Compiled fast-path kernels for protocol round evaluation.
//
// The generic path pays per-node LocalView assembly, a virtual
// Protocol::onRound call, and a const State* chase per neighbor. For the
// paper's two flagship protocols (SMM, SIS) the whole round is a pure map
// over flat data, so a per-protocol kernel can evaluate it directly off the
// Graph's CSR adjacency and structure-of-arrays state — no views, no
// virtual dispatch in the inner loop, no pointer indirection.
//
// Two independent interfaces:
//  * ViewKernel  — devirtualized single-view evaluation, bit-identical to
//    Protocol::onRound. This is what the beacon simulator uses (it has no
//    static graph to mirror, only per-node caches).
//  * FlatKernel  — whole-range / vertex-list batch evaluation for the round
//    executor over an SoA state mirror. It reads the adjacency straight
//    from the Graph it was built over, the run's one adjacency. sync()
//    reloads the mirror from the authoritative state vector (and
//    revalidates any topology-derived cache against Graph::version()),
//    optionally reporting the slots that changed; apply() patches the
//    committed moves so the mirror stays hot between rounds.
//
// The executor evaluates every round through a FlatKernel. Protocols
// without a compiled kernel run through GenericKernel, an adapter that
// plays the same role with a snapshot copy as its "mirror" and a LocalView
// + virtual onRound per node — the reference path the compiled kernels are
// checked against.
//
// Contract: every kernel must produce the exact same decision as the
// protocol object it mirrors, for every view — same moves, same resulting
// states, same fixpoint behavior. The KernelDifferential stress suite
// enforces this bit-identity at every thread count and under every
// schedule; see docs/PERFORMANCE.md.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/protocol.hpp"
#include "engine/view_builder.hpp"
#include "graph/graph.hpp"
#include "graph/id_order.hpp"

namespace selfstab::engine {

/// Which evaluation path a runner is on. Generic = LocalView + virtual
/// onRound (GenericKernel); Flat = compiled SoA kernel batch evaluation.
enum class Kernel : std::uint8_t { Generic, Flat };

/// CLI-facing selection: Auto picks Flat when the protocol has a kernel
/// (SMM, SIS) and falls back to Generic otherwise.
enum class KernelMode : std::uint8_t { Auto, Generic, Flat };

[[nodiscard]] constexpr std::string_view toString(Kernel k) noexcept {
  return k == Kernel::Flat ? "flat" : "generic";
}

[[nodiscard]] constexpr std::string_view toString(KernelMode m) noexcept {
  switch (m) {
    case KernelMode::Generic:
      return "generic";
    case KernelMode::Flat:
      return "flat";
    case KernelMode::Auto:
      break;
  }
  return "auto";
}

/// Batch output: (vertex, new state) pairs, matching the executor's commit
/// queues so results splice in without conversion.
template <typename State>
using MoveList = std::vector<std::pair<graph::Vertex, State>>;

/// Devirtualized per-view evaluation, bit-identical to Protocol::onRound.
template <typename State>
class ViewKernel {
 public:
  ViewKernel() = default;
  ViewKernel(const ViewKernel&) = delete;
  ViewKernel& operator=(const ViewKernel&) = delete;
  virtual ~ViewKernel() = default;

  [[nodiscard]] virtual std::optional<State> evaluateView(
      const LocalView<State>& view) const = 0;
};

/// Whole-round evaluation over CSR adjacency + structure-of-arrays state.
///
/// Usage by the executor (engine/sync_runner.hpp):
///   * sync(states, nullptr, workers) on the first round, after a kernel swap
///     and after a topology change: a full reload.
///   * sync(states, &changed, workers) after the caller announced state edits
///     (SyncRunner::invalidateSchedule): reloads and lists the edited slots.
///   * evaluateRange over [0, n) or evaluateList over the work set —
///     possibly chunked across workers — then apply(moves) for each chunk's
///     committed moves, so no round needs a full reload. Chunks start and
///     end on 64-vertex boundaries, and a busy round applies them
///     concurrently (see apply()).
/// evaluateRange/evaluateList are const and read only the mirror and the
/// graph. A kernel may also keep a cache derived from the topology: a
/// per-vertex one that evaluating v writes in v's own slot and nowhere else
/// (SmmKernel's verified pointers), or one built whole (SisKernel's
/// bigger-neighbour slices). It must hold only facts about the topology, be
/// rebuilt or reset by sync() when graph().version() moves, and never change
/// a decision. Since the executor evaluates each vertex at most once per
/// round, disjoint chunks may be evaluated concurrently.
template <typename State>
class FlatKernel {
 public:
  FlatKernel(const graph::Graph& g, const graph::IdAssignment& ids)
      : g_(&g), ids_(&ids) {}
  FlatKernel(const FlatKernel&) = delete;
  FlatKernel& operator=(const FlatKernel&) = delete;
  virtual ~FlatKernel() = default;

  /// The graph and IDs this kernel evaluates over (identity, not a copy).
  [[nodiscard]] const graph::Graph& graph() const noexcept { return *g_; }
  [[nodiscard]] const graph::IdAssignment& ids() const noexcept {
    return *ids_;
  }

  /// Reloads the whole SoA state mirror from the authoritative vector and
  /// revalidates topology-derived caches against Graph::version(). When
  /// `changed` is non-null the mirror already holds states.size() slots,
  /// and every vertex whose slot differed is appended to it in ascending
  /// order. `workers` is the executor's width (1: run inline): a cache
  /// rebuild worth splitting dispatches at that width on parallel::team().
  virtual void sync(const std::vector<State>& states,
                    std::vector<graph::Vertex>* changed,
                    std::size_t workers) = 0;

  /// Patches the mirror with committed moves (each vertex's new state).
  /// It writes only the moved vertices' own slots. A mirror that packs
  /// slots into shared words (SisKernel: 64 vertices to a 64-bit word)
  /// must keep whole words to one call: the executor may run apply()
  /// concurrently on move lists whose vertices lie in disjoint ranges
  /// aligned to 64 vertices, and on nothing finer.
  virtual void apply(const MoveList<State>& moves) = 0;

  /// True iff the mirror equals `states` slot for slot (debug checks).
  [[nodiscard]] virtual bool mirrors(const std::vector<State>& states) const = 0;

  /// Bytes held by the mirror and the topology caches (the memory
  /// ledger's kernel gauge).
  [[nodiscard]] virtual std::size_t mirrorBytes() const noexcept = 0;

  /// Evaluates every vertex in [begin, end), appending moves to out.
  virtual void evaluateRange(graph::Vertex begin, graph::Vertex end,
                             std::uint64_t roundKey,
                             MoveList<State>& out) const = 0;

  /// Evaluates exactly the given vertices (ascending, as the executor's
  /// work set yields them), appending moves to out.
  virtual void evaluateList(std::span<const graph::Vertex> vertices,
                            std::uint64_t roundKey,
                            MoveList<State>& out) const = 0;

 private:
  const graph::Graph* g_;
  const graph::IdAssignment* ids_;
};

/// The generic Protocol path as a FlatKernel: the "mirror" is a full copy
/// of the state vector and each node is evaluated through a LocalView over
/// the graph. Each batch call walks with its own neighbor
/// buffer, so disjoint ranges may run concurrently like any other kernel.
template <typename State>
class GenericKernel final : public FlatKernel<State> {
 public:
  GenericKernel(const Protocol<State>& protocol, const graph::Graph& g,
                const graph::IdAssignment& ids)
      : FlatKernel<State>(g, ids), protocol_(&protocol) {}

  void sync(const std::vector<State>& states,
            std::vector<graph::Vertex>* changed,
            std::size_t /*workers*/) override {
    if (changed == nullptr) {
      snapshot_ = states;
      return;
    }
    for (std::size_t v = 0; v < states.size(); ++v) {
      if (!(snapshot_[v] == states[v])) {
        snapshot_[v] = states[v];
        changed->push_back(static_cast<graph::Vertex>(v));
      }
    }
  }

  void apply(const MoveList<State>& moves) override {
    for (const auto& [v, s] : moves) snapshot_[v] = s;
  }

  [[nodiscard]] bool mirrors(const std::vector<State>& states) const override {
    return snapshot_ == states;
  }

  [[nodiscard]] std::size_t mirrorBytes() const noexcept override {
    return snapshot_.capacity() * sizeof(State);
  }

  void evaluateRange(graph::Vertex begin, graph::Vertex end,
                     std::uint64_t roundKey,
                     MoveList<State>& out) const override {
    std::vector<NeighborRef<State>> buffer;
    for (graph::Vertex v = begin; v < end; ++v) {
      evaluateOne(v, roundKey, buffer, out);
    }
  }

  void evaluateList(std::span<const graph::Vertex> vertices,
                    std::uint64_t roundKey,
                    MoveList<State>& out) const override {
    std::vector<NeighborRef<State>> buffer;
    for (const graph::Vertex v : vertices) {
      evaluateOne(v, roundKey, buffer, out);
    }
  }

 private:
  void evaluateOne(graph::Vertex v, std::uint64_t roundKey,
                   std::vector<NeighborRef<State>>& buffer,
                   MoveList<State>& out) const {
    const LocalView<State> view = buildView(this->graph(), this->ids(), v,
                                           snapshot_, roundKey, buffer);
    if (auto next = protocol_->onRound(view)) {
      assert(!(*next == snapshot_[v]) && "a move must change the node's state");
      out.emplace_back(v, std::move(*next));
    }
  }

  const Protocol<State>* protocol_;
  std::vector<State> snapshot_;
};

}  // namespace selfstab::engine

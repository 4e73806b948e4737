// Compiled fast-path kernels for protocol round evaluation.
//
// The generic path pays per-node LocalView assembly, a virtual
// Protocol::onRound call, and a const State* chase per neighbor. For the
// paper's two flagship protocols (SMM, SIS) the whole round is a pure map
// over flat data, so a per-protocol kernel can evaluate it directly off the
// CSR adjacency (engine/topology.hpp) and structure-of-arrays state — no
// views, no virtual dispatch in the inner loop, no pointer indirection.
//
// Two independent interfaces:
//  * ViewKernel  — devirtualized single-view evaluation, bit-identical to
//    Protocol::onRound. This is what the beacon simulator uses (it has no
//    static graph to mirror, only per-node caches).
//  * FlatKernel  — whole-range / dirty-list batch evaluation for the round
//    executor over an SoA state mirror. It owns the run's one CSR topology
//    (topology()), which the executor also reads for its fixpoint sweep and
//    active-set marks. sync() refreshes that topology, reloads the mirror
//    from the authoritative state vector and reports whether the mirror
//    changed; apply() patches a single slot so the Active schedule can keep
//    the mirror hot between rounds.
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
// enforces this bit-identity at every thread count and under both
// schedules; see docs/PERFORMANCE.md.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/protocol.hpp"
#include "engine/topology.hpp"
#include "engine/view_builder.hpp"
#include "graph/graph.hpp"

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
/// Usage by the executor:
///   * Dense rounds: sync(states) once per round (the snapshot phase), then
///     evaluateRange over [0, n) — possibly chunked across workers — unless
///     sync() found the mirror unchanged after a quiet round (the executor
///     then skips the round).
///   * Active rounds: sync(states) on (re)seed, evaluateList over the dirty
///     set, then apply(v, next) for each committed move so the mirror stays
///     current without a full reload.
/// evaluateRange/evaluateList are const and touch only the mirror, so
/// disjoint chunks may be evaluated concurrently.
template <typename State>
class FlatKernel {
 public:
  FlatKernel(const graph::Graph& g, const graph::IdAssignment& ids)
      : topo_(g, ids) {}
  FlatKernel(const FlatKernel&) = delete;
  FlatKernel& operator=(const FlatKernel&) = delete;
  virtual ~FlatKernel() = default;

  /// The CSR adjacency of (g, ids) this kernel evaluates over. Built on its
  /// first refresh(); any reader may refresh it, so caches derived from it
  /// key on CsrTopology::generation().
  [[nodiscard]] CsrTopology& topology() noexcept { return topo_; }
  [[nodiscard]] const CsrTopology& topology() const noexcept { return topo_; }

  /// Refreshes the topology mirror and reloads the whole SoA state mirror
  /// from the authoritative vector. Handles external state edits (fault
  /// injection) and graph mutation exactly like the generic path's full
  /// snapshot copy. Returns true iff the state mirror changed (any slot
  /// differs, or the vertex count did), computed during the copy; topology
  /// changes are reported by topology().generation() instead.
  virtual bool sync(const std::vector<State>& states) = 0;

  /// Patches one slot of the SoA mirror after a committed move.
  virtual void apply(graph::Vertex v, const State& s) = 0;

  /// Evaluates every vertex in [begin, end), appending moves to out.
  virtual void evaluateRange(graph::Vertex begin, graph::Vertex end,
                             std::uint64_t roundKey,
                             MoveList<State>& out) const = 0;

  /// Evaluates exactly the given vertices (ascending, as ActiveSet yields
  /// them), appending moves to out.
  virtual void evaluateList(std::span<const graph::Vertex> vertices,
                            std::uint64_t roundKey,
                            MoveList<State>& out) const = 0;

 private:
  CsrTopology topo_;
};

/// The generic Protocol path as a FlatKernel: the "mirror" is a full copy
/// of the state vector and each node is evaluated through a LocalView over
/// the kernel's topology. Each batch call walks with its own neighbor
/// buffer, so disjoint ranges may run concurrently like any other kernel.
template <typename State>
class GenericKernel final : public FlatKernel<State> {
 public:
  GenericKernel(const Protocol<State>& protocol, const graph::Graph& g,
                const graph::IdAssignment& ids)
      : FlatKernel<State>(g, ids), protocol_(&protocol) {}

  bool sync(const std::vector<State>& states) override {
    this->topology().refresh();
    if (snapshot_.size() != states.size()) {
      snapshot_ = states;
      return true;
    }
    bool changed = false;
    for (std::size_t v = 0; v < states.size(); ++v) {
      if (!(snapshot_[v] == states[v])) {
        snapshot_[v] = states[v];
        changed = true;
      }
    }
    return changed;
  }

  void apply(graph::Vertex v, const State& s) override { snapshot_[v] = s; }

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
    const LocalView<State> view =
        buildView(this->topology(), v, snapshot_, roundKey, buffer);
    if (auto next = protocol_->onRound(view)) {
      assert(!(*next == snapshot_[v]) && "a move must change the node's state");
      out.emplace_back(v, std::move(*next));
    }
  }

  const Protocol<State>* protocol_;
  std::vector<State> snapshot_;
};

}  // namespace selfstab::engine

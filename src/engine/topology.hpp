// Flat CSR mirror of a graph's adjacency: offsets + targets.
//
// Each vertex's neighbors are one contiguous, ascending slice of targets,
// so a per-node evaluation is a cache-linear sweep instead of a
// pointer-chasing walk over per-vertex vectors. The mirror holds no
// per-edge copy of the neighbor IDs: a reader that needs one loads
// idOf(w), trading a random load for 8 bytes per edge slot.
// A run holds exactly one, owned by its FlatKernel (engine/kernel.hpp) and
// read by the round executor too. It is built on the first refresh() and
// revalidates lazily against Graph::version(), so topology edits (mobility,
// fault campaigns) show up on the next refresh() — whichever reader makes
// it. Caches derived from the mirror therefore key on generation().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/id_order.hpp"

namespace selfstab::engine {

class CsrTopology {
 public:
  CsrTopology(const graph::Graph& g, const graph::IdAssignment& ids)
      : g_(&g), ids_(&ids) {}

  /// Rebuilds the mirror iff the graph mutated since the last refresh (or
  /// it was never built); a rebuild bumps generation().
  void refresh() {
    if (generation_ != 0 && cachedVersion_ == g_->version() &&
        offsets_.size() == g_->order() + 1) {
      return;
    }
    const std::size_t n = g_->order();
    offsets_.resize(n + 1);
    targets_.resize(2 * g_->size());
    offsets_[0] = 0;
    for (graph::Vertex v = 0; v < n; ++v) {
      const auto nbrs = g_->neighbors(v);
      std::copy(nbrs.begin(), nbrs.end(), targets_.data() + offsets_[v]);
      offsets_[v + 1] = offsets_[v] + nbrs.size();
    }
    cachedVersion_ = g_->version();
    ++generation_;
  }

  /// Number of rebuilds so far (0 = never built). A cache derived from the
  /// mirror is current iff it was built at the present generation.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  /// Neighbors of v in ascending vertex order. Valid until the next
  /// refresh() that observes a graph mutation.
  [[nodiscard]] std::span<const graph::Vertex> neighbors(
      graph::Vertex v) const noexcept {
    return {targets_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  [[nodiscard]] std::size_t degree(graph::Vertex v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  [[nodiscard]] graph::Id idOf(graph::Vertex v) const noexcept {
    return ids_->idOf(v);
  }

  /// True iff this mirrors exactly these objects (identity, not equality).
  [[nodiscard]] bool mirrors(const graph::Graph& g,
                             const graph::IdAssignment& ids) const noexcept {
    return g_ == &g && ids_ == &ids;
  }

 private:
  const graph::Graph* g_;
  const graph::IdAssignment* ids_;
  std::vector<std::size_t> offsets_;
  std::vector<graph::Vertex> targets_;
  std::uint64_t cachedVersion_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace selfstab::engine

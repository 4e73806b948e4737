// Shared helpers for constructing LocalViews from a global state vector.
//
// Two adjacency sources, one view shape: buildView reads the CSR mirror a
// FlatKernel owns (the round executor's fast sweep), and ViewBuilder reads
// the Graph itself (daemons, replay, chaos masking), so it needs no mirror
// of its own and always sees the current topology.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/protocol.hpp"
#include "engine/topology.hpp"

namespace selfstab::engine {

/// Assembles v's LocalView over an already refreshed CSR mirror, filling
/// `buffer` with one NeighborRef per neighbor. The view aliases `buffer` and
/// `states`: it is valid until either changes. Concurrent callers need
/// their own buffers; the mirror itself is only read.
template <typename State>
LocalView<State> buildView(const CsrTopology& topo, graph::Vertex v,
                           const std::vector<State>& states,
                           std::uint64_t roundKey,
                           std::vector<NeighborRef<State>>& buffer) {
  buffer.clear();
  const std::span<const graph::Vertex> nbrs = topo.neighbors(v);
  buffer.reserve(nbrs.size());
  for (const graph::Vertex w : nbrs) {
    buffer.push_back(NeighborRef<State>{w, topo.idOf(w), &states[w]});
  }
  return {.self = v, .selfId = topo.idOf(v), .selfState = &states[v],
          .neighbors = buffer, .roundKey = roundKey};
}

/// Builds LocalViews against a (graph, id assignment, state vector) triple,
/// reusing one neighbor buffer across calls. The returned view aliases both
/// the builder's buffer and the state vector passed in, so it is valid only
/// until the next build() call or state mutation. Neighbors come straight
/// from Graph::neighbors, so topology edits show up on the next build().
template <typename State>
class ViewBuilder {
 public:
  ViewBuilder(const graph::Graph& g, const graph::IdAssignment& ids)
      : g_(&g), ids_(&ids) {}

  LocalView<State> build(graph::Vertex v, const std::vector<State>& states,
                         std::uint64_t roundKey = 0) {
    buffer_.clear();
    const std::span<const graph::Vertex> nbrs = g_->neighbors(v);
    buffer_.reserve(nbrs.size());
    for (const graph::Vertex w : nbrs) {
      buffer_.push_back(NeighborRef<State>{w, ids_->idOf(w), &states[w]});
    }
    return {.self = v, .selfId = ids_->idOf(v), .selfState = &states[v],
            .neighbors = buffer_, .roundKey = roundKey};
  }

  [[nodiscard]] const graph::IdAssignment& ids() const noexcept {
    return *ids_;
  }

 private:
  const graph::Graph* g_;
  const graph::IdAssignment* ids_;
  std::vector<NeighborRef<State>> buffer_;
};

}  // namespace selfstab::engine

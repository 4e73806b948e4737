// The one way to assemble a LocalView: v's self slot plus one NeighborRef
// per neighbor, read straight off the Graph's CSR (at its width, chosen once
// per view) and the IdAssignment, so
// every reader sees the current topology. The executor's generic kernel
// calls buildView with a buffer per batch; ViewBuilder keeps one buffer for
// callers that build views one at a time (daemons, replay, chaos masking).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/protocol.hpp"
#include "graph/graph.hpp"
#include "graph/id_order.hpp"

namespace selfstab::engine {

/// Assembles v's LocalView over (g, ids, states), filling `buffer` with one
/// NeighborRef per neighbor. The view aliases `buffer` and `states`: it is
/// valid until either changes or the graph is edited. Concurrent callers
/// need their own buffers; the graph is only read.
template <typename State>
LocalView<State> buildView(const graph::Graph& g,
                           const graph::IdAssignment& ids, graph::Vertex v,
                           const std::vector<State>& states,
                           std::uint64_t roundKey,
                           std::vector<NeighborRef<State>>& buffer) {
  buffer.clear();
  g.withSlices([&](const auto& adj) {
    const auto nbrs = adj.neighbors(v);
    buffer.reserve(nbrs.size());
    for (const graph::Vertex w : nbrs) {
      buffer.push_back(NeighborRef<State>{w, ids.idOf(w), &states[w]});
    }
  });
  return {.self = v, .selfId = ids.idOf(v), .selfState = &states[v],
          .neighbors = buffer, .roundKey = roundKey};
}

/// buildView against a fixed (graph, id assignment) pair, reusing one
/// neighbor buffer across calls. The returned view is valid only until the
/// next build() call, state mutation or graph edit.
template <typename State>
class ViewBuilder {
 public:
  ViewBuilder(const graph::Graph& g, const graph::IdAssignment& ids)
      : g_(&g), ids_(&ids) {}

  LocalView<State> build(graph::Vertex v, const std::vector<State>& states,
                         std::uint64_t roundKey = 0) {
    return buildView(*g_, *ids_, v, states, roundKey, buffer_);
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

// Shared helper for constructing LocalViews from a global state vector.
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
  const std::span<const graph::Id> nbrIds = topo.neighborIds(v);
  buffer.reserve(nbrs.size());
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    buffer.push_back(NeighborRef<State>{nbrs[i], nbrIds[i], &states[nbrs[i]]});
  }
  LocalView<State> view;
  view.self = v;
  view.selfId = topo.idOf(v);
  view.selfState = &states[v];
  view.neighbors = buffer;
  view.roundKey = roundKey;
  return view;
}

/// Builds LocalViews against a (graph, id assignment, state vector) triple,
/// reusing one neighbor buffer across calls. The returned view aliases both
/// the builder's buffer and the state vector passed in, so it is valid only
/// until the next build() call or state mutation.
///
/// The CSR adjacency mirror itself lives in CsrTopology (engine/topology.hpp)
/// so the flat protocol kernels can share the exact same layout; the builder
/// only adds the per-call NeighborRef materialization. The mirror revalidates
/// lazily against Graph::version(), so post-construction topology edits are
/// still reflected — the contract existing callers rely on.
template <typename State>
class ViewBuilder {
 public:
  ViewBuilder(const graph::Graph& g, const graph::IdAssignment& ids)
      : topo_(g, ids) {}

  LocalView<State> build(graph::Vertex v, const std::vector<State>& states,
                         std::uint64_t roundKey = 0) {
    topo_.refresh();
    return buildView(topo_, v, states, roundKey, buffer_);
  }

  /// Neighbors of v in ascending vertex order, straight from the CSR mirror.
  /// The span is invalidated by graph mutation followed by a refresh.
  [[nodiscard]] std::span<const graph::Vertex> neighborsOf(graph::Vertex v) {
    topo_.refresh();
    return topo_.neighbors(v);
  }

  [[nodiscard]] const graph::Graph& graphRef() const noexcept {
    return topo_.graphRef();
  }
  [[nodiscard]] const graph::IdAssignment& ids() const noexcept {
    return topo_.ids();
  }

 private:
  CsrTopology topo_;
  std::vector<NeighborRef<State>> buffer_;
};

}  // namespace selfstab::engine

// Per-node state of the matching protocols.
//
// Section 3: "Each node i maintains a single pointer variable which is either
// null, denoted i -> Λ, or points to one of its neighbors j, denoted i -> j."
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/rng.hpp"

namespace selfstab::core {

/// The single pointer variable of algorithms SMM and Hsu–Huang.
struct PointerState {
  /// Target vertex, or graph::kNoVertex for the null pointer Λ.
  graph::Vertex ptr = graph::kNoVertex;

  [[nodiscard]] constexpr bool isNull() const noexcept {
    return ptr == graph::kNoVertex;
  }

  friend constexpr bool operator==(const PointerState&,
                                   const PointerState&) = default;

  friend constexpr std::uint64_t hashValue(const PointerState& s) noexcept {
    return mix64(static_cast<std::uint64_t>(s.ptr) + 1);
  }

  /// The vertex-valued fields, for engine::toInternalFrame.
  template <typename Fn>
  friend constexpr void mapVertices(PointerState& s, const Fn& fn) {
    fn(s.ptr);
  }
};

/// Uniform sample from N(v) ∪ {Λ} — the set of *type-correct* pointer values.
/// This spans the full configuration space the paper's proofs quantify over.
/// On a labelled graph the draw is in the external frame (see
/// engine/fault.hpp): the pick-th neighbour by label, as its label.
inline PointerState randomPointerState(graph::Vertex v, const graph::Graph& g,
                                       Rng& rng) {
  const std::size_t degree = g.degree(v);
  const std::uint64_t pick = rng.below(degree + 1);
  if (pick == degree) return PointerState{};  // Λ
  return PointerState{g.labelOf(graph::neighborByLabelRank(
      g, v, static_cast<std::size_t>(pick)))};
}

/// engine::randomConfiguration(g, rng, randomPointerState): the same draws
/// and states, at width `width` on parallel::team(). A labelled graph is
/// drawn in label order, and walking its CSR in that order costs a cache
/// miss or more per node (about 1 s at 10^6). The draws read only degrees,
/// so the degrees are scattered into label order, drawn serially there,
/// and each node then resolves its draw among its own neighbours.
std::vector<PointerState> randomPointerConfiguration(const graph::Graph& g,
                                                     Rng& rng,
                                                     std::size_t width);

/// Uniform sample from V ∪ {Λ}: may produce pointers to non-neighbors or to
/// the node itself, the kind of garbage left behind by memory corruption or
/// by a link failing while a pointer crossed it. Protocol implementations
/// must tolerate (and clean up) such values.
/// On a labelled graph the pointer is an external number.
inline PointerState wildPointerState(graph::Vertex v, const graph::Graph& g,
                                     Rng& rng) {
  (void)v;
  const std::uint64_t pick = rng.below(g.order() + 1);
  if (pick == g.order()) return PointerState{};  // Λ
  return PointerState{static_cast<graph::Vertex>(pick)};
}

}  // namespace selfstab::core

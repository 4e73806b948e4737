// Per-node state of the matching protocols.
//
// Section 3: "Each node i maintains a single pointer variable which is either
// null, denoted i -> Λ, or points to one of its neighbors j, denoted i -> j."
#pragma once

#include <cstdint>

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

namespace detail {
/// The pick of randomPointerState as an internal vertex (kNoVertex: Λ).
inline graph::Vertex randomPointerPick(graph::Vertex v, const graph::Graph& g,
                                       Rng& rng) {
  const std::uint64_t key = rng.next();
  graph::Vertex best = graph::kNoVertex;
  std::uint64_t least = hashCombine(key, best);
  for (const graph::Vertex w : g.neighbors(v)) {
    const std::uint64_t h = hashCombine(key, g.labelOf(w));
    // Selects, not a branch: a new least is too irregular to predict.
    const bool less = h < least;
    least = less ? h : least;
    best = less ? w : best;
  }
  return best;
}
}  // namespace detail

/// Uniform sample from N(v) ∪ {Λ} — the set of *type-correct* pointer values.
/// This spans the full configuration space the paper's proofs quantify over.
/// One draw keys a hash of each member's external number (Λ as kNoVertex),
/// and the member with the smallest hash wins. For a fixed key the hash is
/// a bijection of the number, so there are no ties, and the pick depends
/// neither on the order of v's neighbour slice nor on storage numbers. On
/// a labelled graph the draw is in the external frame (see
/// engine/fault.hpp): the winner's label.
inline PointerState randomPointerState(graph::Vertex v, const graph::Graph& g,
                                       Rng& rng) {
  const graph::Vertex w = detail::randomPointerPick(v, g, rng);
  return PointerState{w == graph::kNoVertex ? w : g.labelOf(w)};
}

/// randomPointerState as a sampler that draws in the internal frame: the
/// same pick, kept as the internal neighbour instead of its label, so a
/// start on a labelled graph needs no inverse labels and translates no
/// pointer (engine::kDrawsInternal).
struct RandomPointer {
  static constexpr bool kInternalFrame = true;

  PointerState operator()(graph::Vertex v, const graph::Graph& g,
                          Rng& rng) const {
    return PointerState{detail::randomPointerPick(v, g, rng)};
  }
};

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

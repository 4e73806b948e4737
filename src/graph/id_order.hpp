// Unique node identifiers.
//
// The paper assumes "each node is assigned a unique ID" (Section 2) and both
// algorithms are ID-sensitive: SMM rule R2 proposes to the *minimum-ID* null
// neighbor, and SIS compares IDs to decide who is "bigger". Keeping the ID
// assignment separate from the dense vertex indexing lets experiments sweep
// ID orders (identity, reversed, random permutations) on the same topology.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "graph/rng.hpp"

#include <vector>

namespace selfstab::graph {

using Id = std::uint64_t;

/// A bijection from vertices 0..n-1 to unique 64-bit IDs.
class IdAssignment {
 public:
  IdAssignment() = default;

  /// The ID array, one per vertex; resize() leaves new slots unwritten.
  using Ids = BulkVector<Id>;

  /// Takes ownership of an arbitrary vector of pairwise-distinct IDs,
  /// one per vertex. Uniqueness is the caller's responsibility (checked
  /// in debug builds via isValid()).
  explicit IdAssignment(Ids ids) : ids_(std::move(ids)) {}

  /// Identity assignment: vertex v has ID v.
  static IdAssignment identity(std::size_t n);

  /// Reversed assignment: vertex v has ID n-1-v.
  static IdAssignment reversed(std::size_t n);

  /// Random permutation of 0..n-1 as IDs.
  static IdAssignment randomPermutation(std::size_t n, Rng& rng);

  /// Random *sparse* IDs: distinct draws from the full 64-bit space,
  /// mimicking hardware addresses in a real ad hoc network.
  static IdAssignment randomSparse(std::size_t n, Rng& rng);

  [[nodiscard]] std::size_t order() const noexcept { return ids_.size(); }

  /// Bytes held by the ID array (the memory ledger's ids gauge).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return ids_.capacity() * sizeof(Id);
  }

  [[nodiscard]] Id idOf(Vertex v) const noexcept { return ids_[v]; }

  /// True if a's ID is smaller than b's.
  [[nodiscard]] bool less(Vertex a, Vertex b) const noexcept {
    return ids_[a] < ids_[b];
  }

  /// All IDs pairwise distinct and sized to the vertex set?
  [[nodiscard]] bool isValid(std::size_t n) const;

 private:
  Ids ids_;
};

}  // namespace selfstab::graph

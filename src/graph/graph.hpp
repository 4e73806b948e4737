// Undirected dynamic graph.
//
// Models the ad hoc network topology of the paper's system model (Section 2):
// a fixed set of n nodes whose *edge set* changes over time as hosts move.
// Vertices are dense indices 0..n-1; the protocol-level unique IDs the
// algorithms compare (Section 2: "each node is assigned a unique ID") are kept
// separate in IdAssignment so experiments can sweep ID orders. A graph may
// also carry labels: the external number (the one a user sees) of each
// internal vertex, so storage can follow space while outputs do not.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "parallel/workers.hpp"

namespace selfstab::graph {

using Vertex = std::uint32_t;

/// Sentinel meaning "no vertex" (the paper's null pointer Λ).
inline constexpr Vertex kNoVertex = static_cast<Vertex>(-1);

/// An undirected edge, stored with u < v.
struct Edge {
  Vertex u;
  Vertex v;

  friend constexpr bool operator==(const Edge&, const Edge&) = default;
  friend constexpr auto operator<=>(const Edge&, const Edge&) = default;
};

/// Normalizes an unordered pair into an Edge (u < v). Requires a != b.
constexpr Edge makeEdge(Vertex a, Vertex b) noexcept {
  return a < b ? Edge{a, b} : Edge{b, a};
}

namespace detail {
/// Allocations of at least this many bytes ask for transparent huge pages.
/// The 2 MiB-aligned interior of a smaller block may hold no huge page at
/// all, and the hint splits the block's mapping, so small arrays stay on
/// 4 KiB pages.
inline constexpr std::size_t kHugePageHintBytes = std::size_t{4} << 20;

/// madvise(MADV_HUGEPAGE) on the 2 MiB-aligned interior of
/// [p, p + bytes). A refusal (or a system without the call) is ignored:
/// the hint never changes what the memory holds.
void adviseHugePages(void* p, std::size_t bytes) noexcept;
}  // namespace detail

/// The allocator of the run's bulk arrays (the CSR, labels, kernel mirrors,
/// IDs). It default-initializes: a vector resized through it leaves the new
/// slots unwritten instead of zeroing them, so a builder that writes every
/// slot anyway takes the page faults where it writes (on the team's
/// workers), not in a serial zero-fill. A block of kHugePageHintBytes or
/// more is hinted for transparent huge pages, which cuts the page faults
/// and TLB misses of a 10^6-node run's arrays; under THP "always" or
/// "never" the hint changes nothing.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t count) {
    T* const p = std::allocator<T>::allocate(count);
    if (count >= detail::kHugePageHintBytes / sizeof(T)) {
      detail::adviseHugePages(p, count * sizeof(T));
    }
    return p;
  }

  // Construction with arguments falls back to allocator_traits' default.
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
};

/// A vector on DefaultInitAllocator: resize() leaves new slots unwritten.
template <typename T>
using BulkVector = std::vector<T, DefaultInitAllocator<T>>;

/// Undirected simple graph on a fixed vertex set with a mutable edge set,
/// stored as one CSR: offsets (n+1) and targets (2m), each vertex's slice
/// of targets strictly ascending. Every round reads N[v] for every node and
/// edits are rare, so reads are one contiguous slice (neighbors() in
/// increasing vertex order, hasEdge() O(log deg)) and a single edit costs
/// O(n + m). Large graphs are built in bulk through fromCsr (or fromEdges,
/// which feeds it), never edge by edge.
class Graph {
 public:
  /// The CSR's arrays and the labels; resize() leaves new slots unwritten.
  using Offsets = BulkVector<std::size_t>;
  using Targets = BulkVector<Vertex>;
  using Labels = BulkVector<Vertex>;

  Graph() = default;

  /// Creates an edgeless graph on n vertices.
  explicit Graph(std::size_t n) : offsets_(n + 1, 0) {}

  /// The bulk factory: adopts a CSR built in one pass. `offsets` has n+1
  /// entries, starts at 0, never decreases and ends at targets.size(); each
  /// slice targets[offsets[v], offsets[v+1]) is strictly ascending,
  /// loop-free and in range, and the adjacency is symmetric (w in N(v) iff
  /// v in N(w)); all checked in debug builds. The result equals the graph
  /// built by adding the same edges one addEdge at a time, version()
  /// included. `labels`, if not empty, is a permutation of 0..n-1 giving
  /// each vertex its external number (debug-checked); see labels().
  [[nodiscard]] static Graph fromCsr(Offsets offsets, Targets targets,
                                     Labels labels = {});

  /// fromCsr over an edge list: every edge once, in any order and either
  /// orientation, loop-free and in range (debug-checked). O(n + m) plus a
  /// sort of each neighbor slice.
  [[nodiscard]] static Graph fromEdges(std::size_t n,
                                       std::span<const Edge> edges);

  /// Number of vertices.
  [[nodiscard]] std::size_t order() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Number of edges.
  [[nodiscard]] std::size_t size() const noexcept {
    return targets_.size() / 2;
  }

  [[nodiscard]] bool contains(Vertex v) const noexcept { return v < order(); }

  /// Adds edge {u, v}. Returns false (and changes nothing) if the edge
  /// already exists or u == v. Both endpoints must be valid vertices.
  /// O(n + m): for tests and small perturbations, not for building.
  bool addEdge(Vertex u, Vertex v);

  /// Removes edge {u, v}. Returns false if it was not present. O(n + m).
  bool removeEdge(Vertex u, Vertex v);

  /// True if {u, v} is an edge. Safe for any vertex arguments.
  [[nodiscard]] bool hasEdge(Vertex u, Vertex v) const noexcept;

  /// Neighbors of v in increasing vertex order. Valid until the next edit.
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const noexcept {
    return {targets_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  [[nodiscard]] std::size_t degree(Vertex v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  /// External numbers: labels()[v] is the number vertex v shows at the
  /// API edge (files, DOT, reports). Empty means the identity, the case of
  /// every graph not built in space order. Copies, edits and rebuildFrom
  /// keep them; the inverse is built only where it is needed
  /// (vertexByLabel).
  [[nodiscard]] std::span<const Vertex> labels() const noexcept {
    return labels_;
  }
  [[nodiscard]] bool labelled() const noexcept { return !labels_.empty(); }
  [[nodiscard]] Vertex labelOf(Vertex v) const noexcept {
    return labels_.empty() ? v : labels_[v];
  }

  /// O(1): recorded when the graph is built or edited.
  [[nodiscard]] std::size_t maxDegree() const noexcept { return maxDegree_; }
  [[nodiscard]] std::size_t minDegree() const noexcept;

  /// All edges, each once, with u < v, in lexicographic order.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Removes every edge; keeps the vertex set.
  void clearEdges();

  /// Flips the presence of edge {u, v}: adds it if absent, removes it
  /// otherwise. Returns true if the edge is present afterwards.
  bool toggleEdge(Vertex u, Vertex v);

  /// Replaces the edge set with `built`'s (same order), in place, as
  /// clearEdges() followed by one addEdge per edge of `built` would:
  /// version() advances by that many steps. The labels stay this graph's
  /// (`built` must carry none or the same). This is how a graph that a
  /// runner or kernel holds gets rebuilt in bulk; assigning a fresh Graph
  /// over it would move version() backwards under their caches.
  void rebuildFrom(Graph&& built);

  /// Monotone mutation counter: bumped by every successful edge insertion or
  /// removal. Caches derived from the adjacency (a kernel's verified
  /// pointers, an executor's schedule) revalidate with one integer compare.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Equality is structural (same adjacency and labels), independent of
  /// the mutation history that produced it.
  friend bool operator==(const Graph& a, const Graph& b) {
    return a.order() == b.order() && a.targets_ == b.targets_ &&
           (a.order() == 0 || a.offsets_ == b.offsets_) &&
           a.labels_ == b.labels_;
  }

 private:
  // Index in targets_ where y sits, or would sit, in x's slice.
  [[nodiscard]] std::size_t slot(Vertex x, Vertex y) const noexcept;
  void recomputeMaxDegree() noexcept;

  Offsets offsets_;  // n+1 entries; empty only when n == 0
  Targets targets_;
  Labels labels_;  // empty (identity) or n entries
  std::size_t maxDegree_ = 0;
  std::uint64_t version_ = 0;
};

/// The inverse of g's labels: entry x is the vertex labelled x; empty (the
/// identity) for an unlabelled graph. O(n), on parallel::team() at
/// workersFor(n, kLabelEdgeGrain); callers hold it only while they
/// translate.
[[nodiscard]] std::vector<Vertex> vertexByLabel(const Graph& g);

namespace detail {

/// A labelled graph's edges in its external numbering, as a CSR over
/// labels: later[offsets[a] .. offsets[a + 1]) holds the labels b > a of
/// label a's neighbours, ascending.
struct EdgesByLabel {
  std::vector<std::size_t> offsets;
  std::unique_ptr<Vertex[]> later;
};

/// Builds g's EdgesByLabel at width `workers` on parallel::team(): each
/// stored vertex counts its larger-label neighbours into its label's slot,
/// the counts are prefix-summed, and each vertex writes its sorted list at
/// its label's offset. The same stream at every width.
[[nodiscard]] EdgesByLabel edgesByLabel(const Graph& g, std::size_t workers);

}  // namespace detail

/// Labelled vertices per edgesByLabel worker; below 2 × this it stays
/// serial. Measured on space-order unit-disk graphs (~0.45 µs a vertex
/// serially): 2 workers win from 5000 vertices, 4 from 10000.
inline constexpr std::size_t kLabelEdgeGrain = 2500;

/// Calls fn(a, b) once per edge in g's external numbering, a < b, in
/// lexicographic order: the order edges() gives for the same graph built
/// unlabelled. A labelled graph is walked through detail::edgesByLabel,
/// built on the team and held for the walk: (n + 1) × 8 B of offsets and
/// m × 4 B of labels. Walking the CSR in label order instead costs a cache
/// miss or more per vertex.
template <typename Fn>
void forEachEdgeByLabel(const Graph& g, Fn&& fn) {
  if (!g.labelled()) {
    for (Vertex u = 0; u < g.order(); ++u) {
      for (const Vertex v : g.neighbors(u)) {
        if (u < v) fn(u, v);
      }
    }
    return;
  }
  const detail::EdgesByLabel edges = detail::edgesByLabel(
      g, parallel::workersFor(g.order(), kLabelEdgeGrain));
  for (Vertex a = 0; a < g.order(); ++a) {
    for (std::size_t k = edges.offsets[a]; k < edges.offsets[a + 1]; ++k) {
      fn(a, edges.later[k]);
    }
  }
}

}  // namespace selfstab::graph

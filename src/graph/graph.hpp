// Undirected dynamic graph.
//
// Models the ad hoc network topology of the paper's system model (Section 2):
// a fixed set of n nodes whose *edge set* changes over time as hosts move.
// Vertices are dense indices 0..n-1; the protocol-level unique IDs the
// algorithms compare (Section 2: "each node is assigned a unique ID") are kept
// separate in IdAssignment so experiments can sweep ID orders. A graph may
// also carry labels: the external number (the one a user sees) of each
// internal vertex, so storage can follow space while outputs do not.
//
// The adjacency is one CSR whose slices have one of two widths, chosen by
// the builders: narrow, 2-byte deltas w − v, when every edge has
// |w − v| ≤ 32767 (a unit-disk graph stored in space order has its
// neighbours a few grid rows away, so a 10^6-node run's slices take half
// the memory), and wide, 4-byte targets, otherwise. neighbors(v) reads
// either through one random-access range; the round loop's hot readers
// call withSlices() once and loop over slices typed at their width, with
// no per-element branch. Fixed-width slices can still shift in place
// (edits, and masked live prefixes later); byte codes could not.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
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

/// A narrow slice entry: w − v for a neighbour w of vertex v.
using Delta = std::int16_t;

/// The largest |w − v| a narrow slice holds.
inline constexpr std::int64_t kMaxDelta = 32767;

/// True iff the edge {v, w} fits a narrow slice: |w − v| ≤ kMaxDelta.
constexpr bool fitsNarrow(Vertex v, Vertex w) noexcept {
  const std::int64_t d = std::int64_t{w} - std::int64_t{v};
  return d >= -kMaxDelta && d <= kMaxDelta;
}

/// How a slice of `Entry` stores neighbour w of v, and reads it back:
/// wide entries are w itself, narrow ones w − v (which must fit).
template <typename Entry>
constexpr Entry encodeEntry(Vertex v, Vertex w) noexcept {
  if constexpr (std::is_same_v<Entry, Delta>) {
    return static_cast<Delta>(static_cast<std::uint16_t>(w - v));
  } else {
    static_assert(std::is_same_v<Entry, Vertex>);
    (void)v;
    return w;
  }
}
template <typename Entry>
constexpr Vertex decodeEntry(Vertex v, Entry e) noexcept {
  if constexpr (std::is_same_v<Entry, Delta>) {
    return v + static_cast<Vertex>(e);
  } else {
    static_assert(std::is_same_v<Entry, Vertex>);
    (void)v;
    return e;
  }
}

/// The entry tag of a slice whose width is read at run time.
struct AnyWidth {};

/// One vertex's neighbours in increasing order, as a random-access range of
/// Vertex values (range-for, size(), operator[], std::lower_bound). `Entry`
/// is how the slice is stored: Vertex (wide), Delta (narrow), or AnyWidth
/// (either, one branch per element: Graph::neighbors). The iterators hold
/// the slice's address, not the range, so they outlive it.
template <typename Entry>
class Slice {
  static constexpr bool kAny = std::is_same_v<Entry, AnyWidth>;
  using Data = std::conditional_t<kAny, const void*, const Entry*>;

 public:
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using iterator_concept = std::random_access_iterator_tag;
    using value_type = Vertex;
    using difference_type = std::ptrdiff_t;
    using reference = Vertex;
    using pointer = void;

    iterator() = default;
    iterator(const Slice& s, std::size_t i) noexcept
        : data_(s.data_), owner_(s.owner_), narrow_(s.narrow_),
          i_(static_cast<difference_type>(i)) {}

    Vertex operator*() const noexcept { return (*this)[0]; }
    Vertex operator[](difference_type k) const noexcept {
      return read(data_, owner_, narrow_, static_cast<std::size_t>(i_ + k));
    }
    iterator& operator++() noexcept { ++i_; return *this; }
    iterator operator++(int) noexcept { iterator t = *this; ++i_; return t; }
    iterator& operator--() noexcept { --i_; return *this; }
    iterator operator--(int) noexcept { iterator t = *this; --i_; return t; }
    iterator& operator+=(difference_type k) noexcept { i_ += k; return *this; }
    iterator& operator-=(difference_type k) noexcept { i_ -= k; return *this; }
    friend iterator operator+(iterator it, difference_type k) noexcept {
      return it += k;
    }
    friend iterator operator+(difference_type k, iterator it) noexcept {
      return it += k;
    }
    friend iterator operator-(iterator it, difference_type k) noexcept {
      return it -= k;
    }
    friend difference_type operator-(const iterator& a,
                                     const iterator& b) noexcept {
      return a.i_ - b.i_;
    }
    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.i_ == b.i_;
    }
    friend auto operator<=>(const iterator& a, const iterator& b) noexcept {
      return a.i_ <=> b.i_;
    }

   private:
    Data data_ = nullptr;
    Vertex owner_ = 0;
    bool narrow_ = false;
    difference_type i_ = 0;
  };

  Slice() = default;
  /// The `size` entries at `data` of vertex `owner`'s slice; `narrow` says
  /// how an AnyWidth slice's entries are stored (ignored otherwise).
  Slice(Data data, std::size_t size, Vertex owner, bool narrow = false) noexcept
      : data_(data), size_(size), owner_(owner), narrow_(narrow) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// The stored entries (for a typed slice, its first Entry).
  [[nodiscard]] Data data() const noexcept { return data_; }
  [[nodiscard]] Vertex operator[](std::size_t i) const noexcept {
    return read(data_, owner_, narrow_, i);
  }
  [[nodiscard]] Vertex front() const noexcept { return (*this)[0]; }
  [[nodiscard]] iterator begin() const noexcept { return {*this, 0}; }
  [[nodiscard]] iterator end() const noexcept { return {*this, size_}; }

 private:
  static Vertex read(Data data, Vertex owner, bool narrow,
                     std::size_t i) noexcept {
    if constexpr (kAny) {
      return narrow ? decodeEntry(owner, static_cast<const Delta*>(data)[i])
                    : static_cast<const Vertex*>(data)[i];
    } else {
      (void)narrow;
      return decodeEntry(owner, data[i]);
    }
  }

  Data data_ = nullptr;
  std::size_t size_ = 0;
  Vertex owner_ = 0;
  bool narrow_ = false;
};

/// A graph's slices at one width, known at compile time: what
/// Graph::withSlices hands a hot reader, so its loops carry no width branch.
template <typename EntryT>
class Adjacency {
 public:
  using Entry = EntryT;

  Adjacency(const std::size_t* offsets, const Entry* entries) noexcept
      : offsets_(offsets), entries_(entries) {}

  [[nodiscard]] Slice<Entry> neighbors(Vertex v) const noexcept {
    return {entries_ + offsets_[v], offsets_[v + 1] - offsets_[v], v};
  }

 private:
  const std::size_t* offsets_;
  const Entry* entries_;
};

class Graph;
namespace detail {
/// A copy of g stored wide whatever its edges: the test seam that runs the
/// same graph at both widths.
[[nodiscard]] Graph widened(const Graph& g);
}  // namespace detail

/// Undirected simple graph on a fixed vertex set with a mutable edge set,
/// stored as one CSR: offsets (n+1) and one slice per vertex, each strictly
/// ascending. A slice is narrow, 2-byte deltas w − v, when every edge
/// {v, w} of the graph has |w − v| ≤ kMaxDelta, and wide, 4-byte targets,
/// otherwise: a unit-disk graph stored in space order has its neighbours a
/// few grid rows away and takes 2 bytes per entry where it took 4. The
/// builders decide the width (fromCsr and fromEdges: narrow iff every edge
/// fits; the unit-disk build from its cell blocks); it is never an option.
/// neighbors(v) reads either width through one random-access range;
/// readers that loop over many slices call withSlices once and read the
/// width-typed Adjacency it hands them. Every round reads N[v] for every
/// node and edits are rare, so reads are one contiguous slice
/// (neighbors() in increasing vertex order, hasEdge() O(log deg)) and a
/// single edit costs O(n + m). Large graphs are built in bulk through
/// fromCsr (or fromEdges, which feeds it), never edge by edge.
class Graph {
 public:
  /// The CSR's arrays and the labels; resize() leaves new slots unwritten.
  using Offsets = BulkVector<std::size_t>;
  using Targets = BulkVector<Vertex>;
  using Deltas = BulkVector<Delta>;
  using Labels = BulkVector<Vertex>;
  using Neighbors = Slice<AnyWidth>;

  Graph() = default;

  /// Creates an edgeless graph on n vertices.
  explicit Graph(std::size_t n) : offsets_(n + 1, 0) {}

  /// The bulk factory: adopts a CSR built in one pass. `offsets` has n+1
  /// entries, starts at 0, never decreases and ends at targets.size(); each
  /// slice targets[offsets[v], offsets[v+1]) is strictly ascending,
  /// loop-free and in range, and the adjacency is symmetric (w in N(v) iff
  /// v in N(w)); all checked in debug builds. The slices are stored narrow
  /// when every edge fits (converted here, in one pass), wide otherwise.
  /// The result equals the graph built by adding the same edges one
  /// addEdge at a time, version() included. `labels`, if not empty, is a
  /// permutation of 0..n-1 giving each vertex its external number
  /// (debug-checked); see labels().
  [[nodiscard]] static Graph fromCsr(Offsets offsets, Targets targets,
                                     Labels labels = {});

  /// fromCsr over narrow slices: deltas[k] = w − v for the k-th entry, in
  /// v's slice, of neighbour w. Same checks, same result.
  [[nodiscard]] static Graph fromDeltas(Offsets offsets, Deltas deltas,
                                        Labels labels = {});

  /// fromCsr over an edge list: every edge once, in any order and either
  /// orientation, loop-free and in range (debug-checked). O(n + m) plus a
  /// sort of each neighbor slice; the slices are filled at their width.
  [[nodiscard]] static Graph fromEdges(std::size_t n,
                                       std::span<const Edge> edges);

  /// Number of vertices.
  [[nodiscard]] std::size_t order() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Number of edges.
  [[nodiscard]] std::size_t size() const noexcept {
    return (narrow_ ? deltas_.size() : targets_.size()) / 2;
  }

  [[nodiscard]] bool contains(Vertex v) const noexcept { return v < order(); }

  /// True iff the slices are stored as 2-byte deltas.
  [[nodiscard]] bool narrow() const noexcept { return narrow_; }

  /// Bytes held by the offsets, the slices and the labels (the memory
  /// ledger's graph gauges).
  [[nodiscard]] std::size_t offsetBytes() const noexcept {
    return offsets_.capacity() * sizeof(std::size_t);
  }
  [[nodiscard]] std::size_t sliceBytes() const noexcept {
    return targets_.capacity() * sizeof(Vertex) +
           deltas_.capacity() * sizeof(Delta);
  }
  [[nodiscard]] std::size_t labelBytes() const noexcept {
    return labels_.capacity() * sizeof(Vertex);
  }

  /// Adds edge {u, v}. Returns false (and changes nothing) if the edge
  /// already exists or u == v. Both endpoints must be valid vertices. An
  /// edge that does not fit a narrow slice turns the graph wide.
  /// O(n + m): for tests and small perturbations, not for building.
  bool addEdge(Vertex u, Vertex v);

  /// Removes edge {u, v}. Returns false if it was not present. O(n + m).
  /// The width stays.
  bool removeEdge(Vertex u, Vertex v);

  /// True if {u, v} is an edge. Safe for any vertex arguments.
  [[nodiscard]] bool hasEdge(Vertex u, Vertex v) const noexcept;

  /// Neighbors of v in increasing vertex order, at either width (one
  /// branch per element). Valid until the next edit.
  [[nodiscard]] Neighbors neighbors(Vertex v) const noexcept {
    const std::size_t at = offsets_[v];
    const std::size_t count = offsets_[v + 1] - at;
    if (narrow_) return {deltas_.data() + at, count, v, true};
    return {targets_.data() + at, count, v, false};
  }

  /// Calls fn(adjacency) once, with the slices typed at their width
  /// (Adjacency<Delta> or Adjacency<Vertex>), and returns what it returns.
  /// Valid until the next edit.
  template <typename Fn>
  decltype(auto) withSlices(Fn&& fn) const {
    if (narrow_) {
      return fn(Adjacency<Delta>(offsets_.data(), deltas_.data()));
    }
    return fn(Adjacency<Vertex>(offsets_.data(), targets_.data()));
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
  /// (`built` must carry none or the same); the width is `built`'s. This is
  /// how a graph that a runner or kernel holds gets rebuilt in bulk;
  /// assigning a fresh Graph over it would move version() backwards under
  /// their caches.
  void rebuildFrom(Graph&& built);

  /// rebuildFrom the edges {u, w} of `base` (same order) for which
  /// keep(u, w) holds; `keep` must be symmetric. Filtered slices stay
  /// ascending, so this is one counting pass and one copying pass, at
  /// base's width when base is narrow (a subset of narrow edges fits).
  template <typename Keep>
  void rebuildFrom(const Graph& base, Keep&& keep) {
    const std::size_t n = base.order();
    Offsets offsets(n + 1);
    offsets[0] = 0;
    rebuildFrom(base.withSlices([&](const auto& adj) {
      using Entry = typename std::decay_t<decltype(adj)>::Entry;
      for (Vertex u = 0; u < n; ++u) {
        std::size_t degree = 0;
        for (const Vertex w : adj.neighbors(u)) degree += keep(u, w) ? 1 : 0;
        offsets[u + 1] = offsets[u] + degree;
      }
      BulkVector<Entry> entries(offsets[n]);
      for (Vertex u = 0; u < n; ++u) {
        std::size_t next = offsets[u];
        for (const Vertex w : adj.neighbors(u)) {
          if (keep(u, w)) entries[next++] = encodeEntry<Entry>(u, w);
        }
      }
      if constexpr (std::is_same_v<Entry, Delta>) {
        return fromDeltas(std::move(offsets), std::move(entries));
      } else {
        return fromCsr(std::move(offsets), std::move(entries));
      }
    }));
  }

  /// Monotone mutation counter: bumped by every successful edge insertion or
  /// removal. Caches derived from the adjacency (a kernel's verified
  /// pointers, an executor's schedule) revalidate with one integer compare.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Equality is structural (same adjacency and labels), independent of
  /// the mutation history that produced it and of the slices' width.
  friend bool operator==(const Graph& a, const Graph& b);

 private:
  friend Graph detail::widened(const Graph& g);

  // Adopts the arrays, debug-checks them and records maxDegree and
  // version as fromCsr documents.
  [[nodiscard]] static Graph adopt(Offsets offsets, Targets targets,
                                   Deltas deltas, bool narrow, Labels labels);
  // Index in the slices where y sits, or would sit, in x's slice.
  [[nodiscard]] std::size_t slot(Vertex x, Vertex y) const noexcept;
  void recomputeMaxDegree() noexcept;
  // Re-stores narrow slices as wide ones.
  void widen();

  Offsets offsets_;  // n+1 entries; empty only when n == 0
  Targets targets_;  // the wide slices; empty when narrow
  Deltas deltas_;    // the narrow slices; empty when wide
  bool narrow_ = true;
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

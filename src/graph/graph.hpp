// Undirected dynamic graph.
//
// Models the ad hoc network topology of the paper's system model (Section 2):
// a fixed set of n nodes whose *edge set* changes over time as hosts move.
// Vertices are dense indices 0..n-1; the protocol-level unique IDs the
// algorithms compare (Section 2: "each node is assigned a unique ID") are kept
// separate in IdAssignment so experiments can sweep ID orders.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

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

/// Undirected simple graph on a fixed vertex set with a mutable edge set.
///
/// Adjacency lists are kept sorted, so neighbors() enumerates in increasing
/// vertex order and hasEdge() is O(log deg). Mutation is O(deg) per endpoint,
/// which is cheap at the degrees ad hoc networks exhibit.
class Graph {
 public:
  Graph() = default;

  /// Creates an edgeless graph on n vertices.
  explicit Graph(std::size_t n) : adj_(n) {}

  /// Adopts adjacency lists built in bulk: one per vertex, each strictly
  /// ascending, symmetric (w in adj[v] iff v in adj[w]), loop-free and in
  /// range (checked in debug builds). The result equals the graph built by
  /// adding the same edges one addEdge at a time, version() included.
  [[nodiscard]] static Graph fromSortedAdjacency(
      std::vector<std::vector<Vertex>> adj);

  /// Number of vertices.
  [[nodiscard]] std::size_t order() const noexcept { return adj_.size(); }

  /// Number of edges.
  [[nodiscard]] std::size_t size() const noexcept { return edgeCount_; }

  [[nodiscard]] bool contains(Vertex v) const noexcept {
    return v < adj_.size();
  }

  /// Adds edge {u, v}. Returns false (and changes nothing) if the edge
  /// already exists or u == v. Both endpoints must be valid vertices.
  bool addEdge(Vertex u, Vertex v);

  /// Removes edge {u, v}. Returns false if it was not present.
  bool removeEdge(Vertex u, Vertex v);

  /// True if {u, v} is an edge. Safe for any vertex arguments.
  [[nodiscard]] bool hasEdge(Vertex u, Vertex v) const noexcept;

  /// Neighbors of v in increasing vertex order.
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const noexcept {
    return adj_[v];
  }

  [[nodiscard]] std::size_t degree(Vertex v) const noexcept {
    return adj_[v].size();
  }

  [[nodiscard]] std::size_t maxDegree() const noexcept;
  [[nodiscard]] std::size_t minDegree() const noexcept;

  /// All edges, each once, with u < v, in lexicographic order.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Removes every edge; keeps the vertex set.
  void clearEdges();

  /// Flips the presence of edge {u, v}: adds it if absent, removes it
  /// otherwise. Returns true if the edge is present afterwards.
  bool toggleEdge(Vertex u, Vertex v);

  /// Monotone mutation counter: bumped by every successful edge insertion or
  /// removal. Lets adjacency caches (engine::CsrTopology) revalidate with a
  /// single integer compare instead of a deep scan.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Equality is structural (same adjacency), independent of the mutation
  /// history that produced it.
  friend bool operator==(const Graph& a, const Graph& b) {
    return a.adj_ == b.adj_;
  }

 private:
  std::vector<std::vector<Vertex>> adj_;
  std::size_t edgeCount_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace selfstab::graph

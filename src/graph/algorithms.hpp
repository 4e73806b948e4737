// Basic graph algorithms shared by generators, verifiers, and experiments.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace selfstab::graph {

/// Distance in edges to every vertex from `source`; unreachable vertices get
/// kUnreachable.
inline constexpr std::size_t kUnreachable = static_cast<std::size_t>(-1);
std::vector<std::size_t> bfsDistances(const Graph& g, Vertex source);

/// Distance in edges to every vertex from the nearest of `sources` (a
/// multi-source BFS, O(n + m)); unreachable vertices get kUnreachable.
std::vector<std::size_t> bfsDistances(const Graph& g,
                                      std::span<const Vertex> sources);

/// True if the graph has one connected component (vacuously true for n <= 1).
/// A parallel union-find on parallel::workersFor(n, kConnectivityGrain)
/// workers; the verdict does not depend on the worker count.
[[nodiscard]] bool isConnected(const Graph& g);

/// Vertices per isConnected worker: below 2 × this the check stays serial.
/// Measured, see docs/PERFORMANCE.md.
inline constexpr std::size_t kConnectivityGrain = 25000;

namespace detail {
/// isConnected with an explicit worker count (1 runs inline); tests compare
/// worker counts against each other and against connectedComponents.
[[nodiscard]] bool isConnected(const Graph& g, std::size_t workers);
}  // namespace detail

/// Component label (0-based, in discovery order) for every vertex.
std::vector<std::size_t> connectedComponents(const Graph& g);

[[nodiscard]] std::size_t componentCount(const Graph& g);

/// Exact diameter via all-pairs BFS; kUnreachable if disconnected.
/// O(n * (n + m)): intended for experiment-sized graphs.
[[nodiscard]] std::size_t diameter(const Graph& g);

/// True if the graph is bipartite (2-colorable).
[[nodiscard]] bool isBipartite(const Graph& g);

/// Vertices in non-increasing degeneracy order, i.e. repeatedly removing a
/// minimum-degree vertex; also reports the degeneracy. Useful for bounding
/// greedy coloring quality.
struct DegeneracyResult {
  std::vector<Vertex> order;
  std::size_t degeneracy = 0;
};
DegeneracyResult degeneracyOrder(const Graph& g);

/// Number of triangles in the graph (sum over edges of common neighbors / 3).
[[nodiscard]] std::size_t triangleCount(const Graph& g);

}  // namespace selfstab::graph

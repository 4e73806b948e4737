// Graph families used throughout the experiments.
//
// The paper proves worst-case bounds over *arbitrary* connected topologies,
// so the benches sweep structured families (paths, cycles, stars, grids,
// trees, complete and complete bipartite graphs, hypercubes) as well as the
// random families that model ad hoc deployments (G(n,p), random geometric /
// unit-disk graphs).
#pragma once

#include <cstddef>

#include "graph/geometry.hpp"
#include "graph/graph.hpp"
#include "graph/rng.hpp"

namespace selfstab::graph {

/// Path P_n: 0-1-2-...-(n-1).
Graph path(std::size_t n);

/// Cycle C_n (n >= 3): the counterexample topology of Section 3.
Graph cycle(std::size_t n);

/// Complete graph K_n.
Graph complete(std::size_t n);

/// Complete bipartite graph K_{a,b}; vertices 0..a-1 on the left side.
Graph completeBipartite(std::size_t a, std::size_t b);

/// Star K_{1,n-1} with vertex 0 at the center.
Graph star(std::size_t n);

/// rows x cols grid (4-neighbor mesh).
Graph grid(std::size_t rows, std::size_t cols);

/// d-dimensional hypercube Q_d on 2^d vertices.
Graph hypercube(std::size_t d);

/// Complete binary tree on n vertices (heap-indexed: children 2i+1, 2i+2).
Graph binaryTree(std::size_t n);

/// Uniformly random labelled tree on n vertices (via Prüfer-like attachment:
/// each vertex v >= 1 attaches to a uniformly random earlier vertex).
Graph randomTree(std::size_t n, Rng& rng);

/// Caterpillar: a path of `spine` vertices with `legsPerSpine` pendant
/// vertices attached to each spine vertex.
Graph caterpillar(std::size_t spine, std::size_t legsPerSpine);

/// Erdős–Rényi G(n,p).
Graph erdosRenyi(std::size_t n, double p, Rng& rng);

/// Connected Erdős–Rényi: a random spanning tree plus G(n,p) edges. The paper
/// assumes the network stays connected, so this is the default random family.
Graph connectedErdosRenyi(std::size_t n, double p, Rng& rng);

/// Wheel W_n: cycle on vertices 1..n-1 plus hub 0 adjacent to all (n >= 4).
Graph wheel(std::size_t n);

/// The Petersen graph (10 vertices, 3-regular, girth 5): outer cycle 0..4,
/// inner pentagram 5..9.
Graph petersen();

/// Barbell: two K_k cliques joined by a path of `bridge` intermediate
/// vertices (bridge may be 0: cliques joined by a single edge).
Graph barbell(std::size_t k, std::size_t bridge);

/// Lollipop: K_k with a path of `tail` vertices attached.
Graph lollipop(std::size_t k, std::size_t tail);

/// Random d-regular graph via the pairing (configuration) model with
/// restarts; n*d must be even and d < n. May include up to `maxTries`
/// resampling rounds to avoid self-loops/multi-edges.
Graph randomRegular(std::size_t n, std::size_t d, Rng& rng,
                    int maxTries = 200);

/// Random geometric (unit-disk) graph: n uniform points in the unit square,
/// edges within `radius`. Optionally returns the generated points.
Graph randomGeometric(std::size_t n, double radius, Rng& rng,
                      std::vector<Point>* outPoints = nullptr);

/// Connected random geometric graph: resamples point sets (up to maxTries)
/// until the unit-disk graph is connected; falls back to adding a random
/// spanning tree over the final sample if the budget is exhausted. `order`
/// numbers the vertices of a connected sample (see unitDiskGraph); a
/// Space graph equals the Points one renumbered, with point indices as its
/// labels, and the same RNG draws. The spliced fallback is always in point
/// order, unlabelled. `outPoints` are in point order either way.
Graph connectedRandomGeometric(std::size_t n, double radius, Rng& rng,
                               std::vector<Point>* outPoints = nullptr,
                               int maxTries = 64,
                               VertexOrder order = VertexOrder::Points);

/// Preferential attachment (Barabási–Albert): vertex v >= 1 attaches
/// min(v, m) edges to distinct earlier vertices sampled proportionally to
/// degree+1. Connected by construction, with a power-law degree tail — the
/// hub-heavy regime that defeats equal-count work splits and motivates the
/// executors' degree-weighted partitioning.
Graph preferentialAttachment(std::size_t n, std::size_t m, Rng& rng);

}  // namespace selfstab::graph

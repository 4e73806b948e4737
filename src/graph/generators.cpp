#include "graph/generators.hpp"

#include <algorithm>
#include <cassert>

#include "graph/algorithms.hpp"

namespace selfstab::graph {

// Each generator lists its edges and builds the graph in one bulk pass
// (Graph::fromEdges): the same graph, version() included, as adding them one
// addEdge at a time, from the same RNG draws.

namespace {

void addClique(std::vector<Edge>& edges, Vertex base, std::size_t k) {
  for (Vertex u = 0; u < k; ++u) {
    for (Vertex v = u + 1; v < k; ++v) edges.push_back({base + u, base + v});
  }
}

// The path first, first+1, ..., first+count; returns its last vertex.
Vertex addPath(std::vector<Edge>& edges, Vertex first, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i, ++first) {
    edges.push_back({first, first + 1});
  }
  return first;
}

// A uniformly random labelled tree: vertex v >= 1 attaches to a uniform
// earlier vertex, one draw each in vertex order. Its edge to v lands at
// index v - 1 of what this appends.
void addRandomTree(std::vector<Edge>& edges, std::size_t n, Rng& rng) {
  for (Vertex v = 1; v < n; ++v) {
    edges.push_back({static_cast<Vertex>(rng.below(v)), v});
  }
}

}  // namespace

Graph path(std::size_t n) {
  std::vector<Edge> edges;
  addPath(edges, 0, n > 0 ? n - 1 : 0);
  return Graph::fromEdges(n, edges);
}

Graph cycle(std::size_t n) {
  assert(n >= 3);
  std::vector<Edge> edges;
  const Vertex last = addPath(edges, 0, n - 1);
  edges.push_back({0, last});
  return Graph::fromEdges(n, edges);
}

Graph complete(std::size_t n) {
  std::vector<Edge> edges;
  addClique(edges, 0, n);
  return Graph::fromEdges(n, edges);
}

Graph completeBipartite(std::size_t a, std::size_t b) {
  std::vector<Edge> edges;
  for (Vertex u = 0; u < a; ++u) {
    for (Vertex v = 0; v < b; ++v) {
      edges.push_back({u, static_cast<Vertex>(a + v)});
    }
  }
  return Graph::fromEdges(a + b, edges);
}

Graph star(std::size_t n) {
  std::vector<Edge> edges;
  for (Vertex v = 1; v < n; ++v) edges.push_back({0, v});
  return Graph::fromEdges(n, edges);
}

Graph grid(std::size_t rows, std::size_t cols) {
  const auto at = [cols](std::size_t r, std::size_t c) {
    return static_cast<Vertex>(r * cols + c);
  };
  std::vector<Edge> edges;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back({at(r, c), at(r, c + 1)});
      if (r + 1 < rows) edges.push_back({at(r, c), at(r + 1, c)});
    }
  }
  return Graph::fromEdges(rows * cols, edges);
}

Graph hypercube(std::size_t d) {
  const std::size_t n = std::size_t{1} << d;
  std::vector<Edge> edges;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t bit = 0; bit < d; ++bit) {
      const std::size_t v = u ^ (std::size_t{1} << bit);
      if (u < v) {
        edges.push_back({static_cast<Vertex>(u), static_cast<Vertex>(v)});
      }
    }
  }
  return Graph::fromEdges(n, edges);
}

Graph binaryTree(std::size_t n) {
  std::vector<Edge> edges;
  for (std::size_t v = 1; v < n; ++v) {
    edges.push_back(
        {static_cast<Vertex>((v - 1) / 2), static_cast<Vertex>(v)});
  }
  return Graph::fromEdges(n, edges);
}

Graph randomTree(std::size_t n, Rng& rng) {
  std::vector<Edge> edges;
  addRandomTree(edges, n, rng);
  return Graph::fromEdges(n, edges);
}

Graph caterpillar(std::size_t spine, std::size_t legsPerSpine) {
  const std::size_t n = spine + spine * legsPerSpine;
  std::vector<Edge> edges;
  addPath(edges, 0, spine > 0 ? spine - 1 : 0);
  Vertex next = static_cast<Vertex>(spine);
  for (Vertex s = 0; s < spine; ++s) {
    for (std::size_t leg = 0; leg < legsPerSpine; ++leg) {
      edges.push_back({s, next++});
    }
  }
  return Graph::fromEdges(n, edges);
}

Graph erdosRenyi(std::size_t n, double p, Rng& rng) {
  std::vector<Edge> edges;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      if (rng.chance(p)) edges.push_back({u, v});
    }
  }
  return Graph::fromEdges(n, edges);
}

Graph connectedErdosRenyi(std::size_t n, double p, Rng& rng) {
  // A pair u < v is a tree edge iff edges[v - 1].u == u; only absent pairs
  // draw.
  std::vector<Edge> edges;
  addRandomTree(edges, n, rng);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      if (edges[v - 1].u != u && rng.chance(p)) edges.push_back({u, v});
    }
  }
  return Graph::fromEdges(n, edges);
}

Graph wheel(std::size_t n) {
  assert(n >= 4);
  std::vector<Edge> edges;
  for (Vertex v = 1; v < n; ++v) {
    edges.push_back({0, v});
    edges.push_back(makeEdge(v, v + 1 < n ? v + 1 : 1));
  }
  return Graph::fromEdges(n, edges);
}

Graph petersen() {
  std::vector<Edge> edges;
  for (Vertex v = 0; v < 5; ++v) {
    edges.push_back(makeEdge(v, (v + 1) % 5));                  // outer cycle
    edges.push_back(makeEdge(5 + v, 5 + (v + 2) % 5));          // pentagram
    edges.push_back({v, static_cast<Vertex>(5 + v)});           // spokes
  }
  return Graph::fromEdges(10, edges);
}

Graph barbell(std::size_t k, std::size_t bridge) {
  assert(k >= 1);
  std::vector<Edge> edges;
  addClique(edges, 0, k);
  addClique(edges, static_cast<Vertex>(k + bridge), k);
  // Path from the last vertex of the left clique through the bridge to the
  // first vertex of the right clique.
  addPath(edges, static_cast<Vertex>(k - 1), bridge + 1);
  return Graph::fromEdges(2 * k + bridge, edges);
}

Graph lollipop(std::size_t k, std::size_t tail) {
  assert(k >= 1);
  std::vector<Edge> edges;
  addClique(edges, 0, k);
  addPath(edges, static_cast<Vertex>(k - 1), tail);
  return Graph::fromEdges(k + tail, edges);
}

Graph randomRegular(std::size_t n, std::size_t d, Rng& rng, int maxTries) {
  assert(d < n && (n * d) % 2 == 0);
  for (int attempt = 0; attempt < maxTries; ++attempt) {
    // Pairing model: n*d half-edge stubs, shuffled and paired up. A
    // self-loop or multi-edge rejects the whole pairing; the shuffle is the
    // attempt's only draw.
    std::vector<Vertex> stubs;
    stubs.reserve(n * d);
    for (Vertex v = 0; v < n; ++v) {
      for (std::size_t i = 0; i < d; ++i) stubs.push_back(v);
    }
    rng.shuffle(stubs);
    std::vector<Edge> edges;
    bool ok = true;
    for (std::size_t i = 0; ok && i + 1 < stubs.size(); i += 2) {
      ok = stubs[i] != stubs[i + 1];  // a self-loop rejects the pairing
      if (ok) edges.push_back(makeEdge(stubs[i], stubs[i + 1]));
    }
    std::sort(edges.begin(), edges.end());
    if (ok && std::adjacent_find(edges.begin(), edges.end()) == edges.end()) {
      return Graph::fromEdges(n, edges);
    }
  }
  // The pairing model succeeds with constant probability for modest d;
  // exhausting maxTries indicates misuse.
  assert(false && "randomRegular: retry budget exhausted");
  return Graph(n);
}

Graph randomGeometric(std::size_t n, double radius, Rng& rng,
                      std::vector<Point>* outPoints) {
  std::vector<Point> points = randomPoints(n, rng);
  Graph g = unitDiskGraph(points, radius);
  if (outPoints != nullptr) *outPoints = std::move(points);
  return g;
}

Graph connectedRandomGeometric(std::size_t n, double radius, Rng& rng,
                               std::vector<Point>* outPoints, int maxTries,
                               VertexOrder order) {
  for (int attempt = 0; attempt < maxTries; ++attempt) {
    std::vector<Point> points = randomPoints(n, rng);
    Graph g = unitDiskGraph(points, radius, order);
    if (isConnected(g)) {
      if (outPoints != nullptr) *outPoints = std::move(points);
      return g;
    }
  }
  // Budget exhausted: keep the last sample's geometry but splice in a random
  // spanning tree so the result is connected (the paper assumes coordinated
  // movement keeps the network connected).
  std::vector<Point> points = randomPoints(n, rng);
  std::vector<Edge> edges = unitDiskGraph(points, radius).edges();
  addRandomTree(edges, n, rng);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  if (outPoints != nullptr) *outPoints = std::move(points);
  return Graph::fromEdges(n, edges);
}

Graph preferentialAttachment(std::size_t n, std::size_t m, Rng& rng) {
  assert(m >= 1);
  std::vector<Edge> edges;
  // Endpoint multiset: one baseline slot per vertex plus one slot per
  // incident half-edge, so a uniform draw is a degree+1-proportional draw.
  std::vector<Vertex> slots;
  slots.reserve(n + 2 * n * m);
  if (n > 0) slots.push_back(0);
  for (Vertex v = 1; v < n; ++v) {
    const std::size_t wanted = std::min<std::size_t>(v, m);
    // Freeze the pool for this step: v's own edges must not bias its
    // remaining draws.
    const std::size_t poolSize = slots.size();
    std::size_t added = 0;
    while (added < wanted) {
      const Edge e{slots[rng.below(poolSize)], v};
      // v's edges so far are the last `added`; a duplicate is resampled.
      if (std::find(edges.end() - static_cast<std::ptrdiff_t>(added),
                    edges.end(), e) == edges.end()) {
        edges.push_back(e);
        slots.push_back(e.u);
        slots.push_back(v);
        ++added;
      }
    }
    slots.push_back(v);
  }
  return Graph::fromEdges(n, edges);
}

}  // namespace selfstab::graph

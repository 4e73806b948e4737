#include "graph/algorithms.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <numeric>

namespace selfstab::graph {

std::vector<std::size_t> bfsDistances(const Graph& g, Vertex source) {
  std::vector<std::size_t> dist(g.order(), kUnreachable);
  if (!g.contains(source)) return dist;
  std::deque<Vertex> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    for (const Vertex v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

// Reachability only: a byte per vertex and the visit order as a flat vector
// that doubles as the queue (vertices are appended once, when first seen, and
// read back in order). Eight times less state than bfsDistances' distances
// and no deque blocks, which matters when 10^6 vertices are visited in an
// order that is random in memory.
bool isConnected(const Graph& g) {
  const std::size_t n = g.order();
  if (n <= 1) return true;
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<Vertex> order;
  order.reserve(n);
  seen[0] = 1;
  order.push_back(0);
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const Vertex v : g.neighbors(order[head])) {
      if (seen[v] == 0) {
        seen[v] = 1;
        order.push_back(v);
      }
    }
  }
  return order.size() == n;
}

std::vector<std::size_t> connectedComponents(const Graph& g) {
  std::vector<std::size_t> comp(g.order(), kUnreachable);
  std::size_t label = 0;
  std::deque<Vertex> queue;
  for (Vertex s = 0; s < g.order(); ++s) {
    if (comp[s] != kUnreachable) continue;
    comp[s] = label;
    queue.push_back(s);
    while (!queue.empty()) {
      const Vertex u = queue.front();
      queue.pop_front();
      for (const Vertex v : g.neighbors(u)) {
        if (comp[v] == kUnreachable) {
          comp[v] = label;
          queue.push_back(v);
        }
      }
    }
    ++label;
  }
  return comp;
}

std::size_t componentCount(const Graph& g) {
  const auto comp = connectedComponents(g);
  return comp.empty() ? 0 : 1 + *std::max_element(comp.begin(), comp.end());
}

std::size_t diameter(const Graph& g) {
  std::size_t best = 0;
  for (Vertex s = 0; s < g.order(); ++s) {
    const auto dist = bfsDistances(g, s);
    for (const std::size_t d : dist) {
      if (d == kUnreachable) return kUnreachable;
      best = std::max(best, d);
    }
  }
  return best;
}

bool isBipartite(const Graph& g) {
  std::vector<int> side(g.order(), -1);
  std::deque<Vertex> queue;
  for (Vertex s = 0; s < g.order(); ++s) {
    if (side[s] != -1) continue;
    side[s] = 0;
    queue.push_back(s);
    while (!queue.empty()) {
      const Vertex u = queue.front();
      queue.pop_front();
      for (const Vertex v : g.neighbors(u)) {
        if (side[v] == -1) {
          side[v] = 1 - side[u];
          queue.push_back(v);
        } else if (side[v] == side[u]) {
          return false;
        }
      }
    }
  }
  return true;
}

DegeneracyResult degeneracyOrder(const Graph& g) {
  const std::size_t n = g.order();
  DegeneracyResult result;
  result.order.reserve(n);

  std::vector<std::size_t> degree(n);
  for (Vertex v = 0; v < n; ++v) degree[v] = g.degree(v);

  // Bucket queue over residual degrees.
  const std::size_t maxDeg = g.maxDegree();
  std::vector<std::vector<Vertex>> buckets(maxDeg + 1);
  for (Vertex v = 0; v < n; ++v) buckets[degree[v]].push_back(v);
  std::vector<bool> removed(n, false);

  std::size_t cursor = 0;
  for (std::size_t taken = 0; taken < n; ++taken) {
    // Find the lowest non-empty bucket; the cursor can move down by at most
    // one per removal, so rewind by one and scan up.
    cursor = cursor > 0 ? cursor - 1 : 0;
    while (cursor <= maxDeg &&
           (buckets[cursor].empty() ||
            removed[buckets[cursor].back()] ||
            degree[buckets[cursor].back()] != cursor)) {
      // Pop stale entries (lazy deletion).
      if (!buckets[cursor].empty() &&
          (removed[buckets[cursor].back()] ||
           degree[buckets[cursor].back()] != cursor)) {
        buckets[cursor].pop_back();
      } else {
        ++cursor;
      }
    }
    const Vertex v = buckets[cursor].back();
    buckets[cursor].pop_back();
    removed[v] = true;
    result.degeneracy = std::max(result.degeneracy, cursor);
    result.order.push_back(v);
    for (const Vertex w : g.neighbors(v)) {
      if (!removed[w]) {
        --degree[w];
        buckets[degree[w]].push_back(w);
      }
    }
  }
  return result;
}

std::size_t triangleCount(const Graph& g) {
  std::size_t total = 0;
  for (Vertex u = 0; u < g.order(); ++u) {
    const auto nu = g.neighbors(u);
    for (const Vertex v : nu) {
      if (v <= u) continue;
      const auto nv = g.neighbors(v);
      // Count common neighbors w with w > v to count each triangle once.
      auto itU = std::upper_bound(nu.begin(), nu.end(), v);
      auto itV = std::upper_bound(nv.begin(), nv.end(), v);
      while (itU != nu.end() && itV != nv.end()) {
        if (*itU < *itV) {
          ++itU;
        } else if (*itV < *itU) {
          ++itV;
        } else {
          ++total;
          ++itU;
          ++itV;
        }
      }
    }
  }
  return total;
}

}  // namespace selfstab::graph

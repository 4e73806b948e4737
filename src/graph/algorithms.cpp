#include "graph/algorithms.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <numeric>

#include "parallel/spin_team.hpp"
#include "parallel/workers.hpp"

namespace selfstab::graph {

std::vector<std::size_t> bfsDistances(const Graph& g, Vertex source) {
  if (!g.contains(source)) {
    return std::vector<std::size_t>(g.order(), kUnreachable);
  }
  return bfsDistances(g, std::span<const Vertex>(&source, 1));
}

std::vector<std::size_t> bfsDistances(const Graph& g,
                                      std::span<const Vertex> sources) {
  std::vector<std::size_t> dist(g.order(), kUnreachable);
  // Every vertex enters the queue once, so a plain array with a read
  // cursor is the queue.
  std::vector<Vertex> queue;
  queue.reserve(g.order());
  for (const Vertex s : sources) {
    if (!g.contains(s) || dist[s] == 0) continue;
    dist[s] = 0;
    queue.push_back(s);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex u = queue[head];
    for (const Vertex v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

bool isConnected(const Graph& g) {
  return detail::isConnected(
      g, parallel::workersFor(g.order(), kConnectivityGrain));
}

namespace {

// A lock-free union-find forest over vertex numbers: parent[v] <= v, a root
// is its own parent, and a link hooks the larger of two roots under the
// smaller with a compare-and-swap, so parents only ever decrease and no
// cycle can form. Slots are read and written through atomic_ref; relaxed
// order suffices because a stale parent is still an ancestor.
class Forest {
 public:
  explicit Forest(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), Vertex{0});
  }

  [[nodiscard]] Vertex parent(Vertex v) {
    return std::atomic_ref<Vertex>(parent_[v]).load(std::memory_order_relaxed);
  }

  // Joins the trees of u and v (the link of Sutton et al.'s Afforest).
  void link(Vertex u, Vertex v) {
    Vertex a = parent(u);
    Vertex b = parent(v);
    while (a != b) {
      const Vertex high = std::max(a, b);
      const Vertex low = std::min(a, b);
      Vertex above = parent(high);
      if (above == low) return;
      if (above == high &&
          std::atomic_ref<Vertex>(parent_[high])
              .compare_exchange_strong(above, low,
                                       std::memory_order_relaxed)) {
        return;
      }
      a = parent(parent(high));
      b = parent(low);
    }
  }

  // Points v straight at its root. Only v's own slot is written, so every
  // vertex may be compressed at once while no link runs.
  void compress(Vertex v) {
    std::atomic_ref<Vertex> slot(parent_[v]);
    for (Vertex p = slot.load(std::memory_order_relaxed), q = parent(p);
         p != q; p = q, q = parent(p)) {
      slot.store(q, std::memory_order_relaxed);
    }
  }

  // The root most of a fixed sample of up to 1024 vertices belongs to;
  // every sampled vertex must be compressed.
  [[nodiscard]] Vertex sampledLargestRoot() {
    const std::size_t n = parent_.size();
    const std::size_t samples = std::min<std::size_t>(n, 1024);
    std::vector<Vertex> roots(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      roots[i] = parent_[i * n / samples];
    }
    std::sort(roots.begin(), roots.end());
    Vertex best = roots[0];
    std::size_t bestRun = 0;
    for (std::size_t i = 0, j = 0; i < samples; i = j) {
      while (j < samples && roots[j] == roots[i]) ++j;
      if (j - i > bestRun) {
        bestRun = j - i;
        best = roots[i];
      }
    }
    return best;
  }

 private:
  std::vector<Vertex> parent_;
};

// Neighbors each vertex links before the forest is sampled.
constexpr std::size_t kSampledNeighbors = 2;
// Vertices per block a worker claims.
constexpr std::size_t kConnectivityBlock = 4096;

}  // namespace

namespace detail {

// Afforest (Sutton, Ben-Nun and Barak, IPDPS 2018): link every vertex to
// its first two neighbors and compress, which already gathers most of a
// connected graph under one root; then only vertices outside the sampled
// largest root link their remaining neighbors. An edge is skipped only
// when both ends sit under that root. Each phase is one pass over vertex
// blocks; the components are then the roots.
bool isConnected(const Graph& g, std::size_t workers) {
  const std::size_t n = g.order();
  if (n <= 1) return true;
  Forest forest(n);
  const auto forEachVertex = [&](const auto& visit) {
    parallel::forEachBlock(workers, n, kConnectivityBlock,
                           [&](std::size_t begin, std::size_t end) {
                             for (auto v = static_cast<Vertex>(begin); v < end;
                                  ++v) {
                               visit(v);
                             }
                           });
  };
  for (std::size_t r = 0; r < kSampledNeighbors; ++r) {
    forEachVertex([&](Vertex v) {
      const auto nbrs = g.neighbors(v);
      if (r < nbrs.size()) forest.link(v, nbrs[r]);
    });
    forEachVertex([&](Vertex v) { forest.compress(v); });
  }
  const Vertex largest = forest.sampledLargestRoot();
  forEachVertex([&](Vertex v) {
    if (forest.parent(v) == largest) return;
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = kSampledNeighbors; i < nbrs.size(); ++i) {
      forest.link(v, nbrs[i]);
    }
  });
  std::atomic<std::size_t> roots{0};
  parallel::forEachBlock(workers, n, kConnectivityBlock,
                         [&](std::size_t begin, std::size_t end) {
                           std::size_t own = 0;
                           for (auto v = static_cast<Vertex>(begin); v < end;
                                ++v) {
                             own += forest.parent(v) == v ? 1 : 0;
                           }
                           roots.fetch_add(own, std::memory_order_relaxed);
                         });
  return roots.load() == 1;
}

}  // namespace detail

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

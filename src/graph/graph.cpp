#include "graph/graph.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>

#include "parallel/spin_team.hpp"

namespace selfstab::graph {

namespace detail {

void adviseHugePages(void* p, std::size_t bytes) noexcept {
#ifdef MADV_HUGEPAGE
  constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t last = (begin + bytes) & ~(kHugePage - 1);
  if (last > first) {
    (void)::madvise(reinterpret_cast<void*>(first), last - first,
                    MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace detail

Graph Graph::adopt(Offsets offsets, Targets targets, Deltas deltas,
                   bool narrow, Labels labels) {
  [[maybe_unused]] const std::size_t entries =
      narrow ? deltas.size() : targets.size();
  assert(!offsets.empty() && offsets.front() == 0 &&
         offsets.back() == entries &&
         std::is_sorted(offsets.begin(), offsets.end()) &&
         "offsets must run from 0 to targets.size() without decreasing");
  Graph g;
  g.offsets_ = std::move(offsets);
  g.targets_ = std::move(targets);
  g.deltas_ = std::move(deltas);
  g.narrow_ = narrow;
  g.labels_ = std::move(labels);
#ifndef NDEBUG
  if (g.labelled()) {
    assert(g.labels_.size() == g.order() && "one label per vertex");
    std::vector<bool> seen(g.order(), false);
    for (const Vertex x : g.labels_) {
      assert(x < g.order() && !seen[x] && "labels must be a permutation");
      seen[x] = true;
    }
  }
  for (Vertex u = 0; u < g.order(); ++u) {
    const auto nbrs = g.neighbors(u);
    assert(std::adjacent_find(nbrs.begin(), nbrs.end(),
                              std::greater_equal<>()) == nbrs.end() &&
           "neighbor slices must be strictly ascending");
    for (const Vertex w : nbrs) {
      assert(w != u && g.contains(w) && "loop or out-of-range neighbor");
      const auto back = g.neighbors(w);
      assert(std::binary_search(back.begin(), back.end(), u) &&
             "adjacency must be symmetric");
    }
  }
#endif
  assert(entries % 2 == 0);
  g.recomputeMaxDegree();
  g.version_ = g.size();  // as if each edge came from one addEdge
  return g;
}

Graph Graph::fromCsr(Offsets offsets, Targets targets, Labels labels) {
  // Narrow iff every edge fits; a wide graph usually shows it within its
  // first few slices.
  const std::size_t n = offsets.empty() ? 0 : offsets.size() - 1;
  bool fits = offsets.empty() || offsets.back() == targets.size();
  for (Vertex v = 0; fits && v < n; ++v) {
    for (std::size_t k = offsets[v]; k < offsets[v + 1]; ++k) {
      if (!fitsNarrow(v, targets[k])) {
        fits = false;
        break;
      }
    }
  }
  if (!fits) {
    return adopt(std::move(offsets), std::move(targets), {}, false,
                 std::move(labels));
  }
  Deltas deltas(targets.size());
  for (Vertex v = 0; v < n; ++v) {
    for (std::size_t k = offsets[v]; k < offsets[v + 1]; ++k) {
      deltas[k] = encodeEntry<Delta>(v, targets[k]);
    }
  }
  targets = Targets();
  return adopt(std::move(offsets), {}, std::move(deltas), true,
               std::move(labels));
}

Graph Graph::fromDeltas(Offsets offsets, Deltas deltas, Labels labels) {
  return adopt(std::move(offsets), {}, std::move(deltas), true,
               std::move(labels));
}

Graph Graph::fromEdges(std::size_t n, std::span<const Edge> edges) {
  Offsets offsets(n + 1, 0);
  for (const Edge& e : edges) {
    assert(e.u != e.v && e.u < n && e.v < n && "loop or out-of-range endpoint");
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  Targets targets(offsets[n]);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    targets[cursor[e.u]++] = e.v;
    targets[cursor[e.v]++] = e.u;
  }
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
  }
  return fromCsr(std::move(offsets), std::move(targets));
}

std::size_t Graph::slot(Vertex x, Vertex y) const noexcept {
  const auto nbrs = neighbors(x);
  return offsets_[x] + static_cast<std::size_t>(
                           std::lower_bound(nbrs.begin(), nbrs.end(), y) -
                           nbrs.begin());
}

void Graph::widen() {
  if (!narrow_) return;
  targets_.resize(deltas_.size());
  for (Vertex v = 0; v < order(); ++v) {
    for (std::size_t k = offsets_[v]; k < offsets_[v + 1]; ++k) {
      targets_[k] = decodeEntry(v, deltas_[k]);
    }
  }
  deltas_ = Deltas();
  narrow_ = false;
}

bool Graph::addEdge(Vertex u, Vertex v) {
  assert(contains(u) && contains(v));
  if (u == v || hasEdge(u, v)) return false;
  if (!fitsNarrow(u, v)) widen();
  const Vertex a = std::min(u, v);
  const Vertex b = std::max(u, v);
  // b's slice lies after a's, so inserting there first keeps a's slot.
  const auto insert = [&](auto& entries) {
    using Entry = typename std::decay_t<decltype(entries)>::value_type;
    entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(slot(b, a)),
                   encodeEntry<Entry>(b, a));
    entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(slot(a, b)),
                   encodeEntry<Entry>(a, b));
  };
  if (narrow_) {
    insert(deltas_);
  } else {
    insert(targets_);
  }
  // Slices after a's start one slot later, those after b's two.
  for (std::size_t x = a + 1; x <= b; ++x) ++offsets_[x];
  for (std::size_t x = b + 1; x < offsets_.size(); ++x) offsets_[x] += 2;
  maxDegree_ = std::max({maxDegree_, degree(a), degree(b)});
  ++version_;
  return true;
}

bool Graph::removeEdge(Vertex u, Vertex v) {
  assert(contains(u) && contains(v));
  if (u == v || !hasEdge(u, v)) return false;
  const Vertex a = std::min(u, v);
  const Vertex b = std::max(u, v);
  const bool hadMax = degree(a) == maxDegree_ || degree(b) == maxDegree_;
  const auto erase = [&](auto& entries) {
    entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(slot(b, a)));
    entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(slot(a, b)));
  };
  if (narrow_) {
    erase(deltas_);
  } else {
    erase(targets_);
  }
  for (std::size_t x = a + 1; x <= b; ++x) --offsets_[x];
  for (std::size_t x = b + 1; x < offsets_.size(); ++x) offsets_[x] -= 2;
  if (hadMax) recomputeMaxDegree();
  ++version_;
  return true;
}

bool Graph::hasEdge(Vertex u, Vertex v) const noexcept {
  if (!contains(u) || !contains(v) || u == v) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

bool operator==(const Graph& a, const Graph& b) {
  if (a.order() != b.order() || a.size() != b.size() ||
      a.labels_ != b.labels_ ||
      (a.order() != 0 && a.offsets_ != b.offsets_)) {
    return false;
  }
  if (a.narrow_ == b.narrow_) {
    return a.narrow_ ? a.deltas_ == b.deltas_ : a.targets_ == b.targets_;
  }
  for (Vertex v = 0; v < a.order(); ++v) {
    const auto x = a.neighbors(v);
    if (!std::equal(x.begin(), x.end(), b.neighbors(v).begin())) return false;
  }
  return true;
}

std::size_t Graph::minDegree() const noexcept {
  if (order() == 0) return 0;
  std::size_t best = degree(0);
  for (Vertex v = 1; v < order(); ++v) best = std::min(best, degree(v));
  return best;
}

void Graph::recomputeMaxDegree() noexcept {
  maxDegree_ = 0;
  for (Vertex v = 0; v < order(); ++v) {
    maxDegree_ = std::max(maxDegree_, degree(v));
  }
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> result;
  result.reserve(size());
  for (Vertex u = 0; u < order(); ++u) {
    for (const Vertex v : neighbors(u)) {
      if (u < v) result.push_back(Edge{u, v});
    }
  }
  return result;
}

void Graph::clearEdges() {
  if (size() > 0) ++version_;
  targets_ = Targets();
  deltas_ = Deltas();
  narrow_ = true;
  std::fill(offsets_.begin(), offsets_.end(), 0);
  maxDegree_ = 0;
}

bool Graph::toggleEdge(Vertex u, Vertex v) {
  if (hasEdge(u, v)) {
    removeEdge(u, v);
    return false;
  }
  return addEdge(u, v);
}

void Graph::rebuildFrom(Graph&& built) {
  assert(built.order() == order() && "a rebuild keeps the vertex set");
  assert((!built.labelled() || built.labels_ == labels_) &&
         "a rebuild keeps the labels");
  const std::uint64_t steps = (size() > 0 ? 1 : 0) + built.size();
  offsets_ = std::move(built.offsets_);
  targets_ = std::move(built.targets_);
  deltas_ = std::move(built.deltas_);
  narrow_ = built.narrow_;
  maxDegree_ = built.maxDegree_;
  version_ += steps;
  built = Graph();
}

std::vector<Vertex> vertexByLabel(const Graph& g) {
  if (!g.labelled()) return {};
  constexpr std::size_t kBlock = 4096;
  std::vector<Vertex> byLabel(g.order());
  parallel::forEachBlock(
      parallel::workersFor(g.order(), kLabelEdgeGrain), g.order(), kBlock,
      [&](std::size_t b, std::size_t e) {
        for (auto v = static_cast<Vertex>(b); v < e; ++v) {
          byLabel[g.labelOf(v)] = v;
        }
      });
  return byLabel;
}

namespace detail {

Graph widened(const Graph& g) {
  Graph wide = g;
  wide.widen();
  return wide;
}

EdgesByLabel edgesByLabel(const Graph& g, std::size_t workers) {
  constexpr std::size_t kBlock = 4096;
  const std::size_t n = g.order();
  EdgesByLabel edges;
  edges.offsets.assign(n + 1, 0);
  parallel::forEachBlock(workers, n, kBlock, [&](std::size_t b,
                                                 std::size_t e) {
    for (auto v = static_cast<Vertex>(b); v < e; ++v) {
      const Vertex a = g.labelOf(v);
      std::size_t count = 0;
      for (const Vertex w : g.neighbors(v)) count += g.labelOf(w) > a;
      edges.offsets[a + 1] = count;
    }
  });
  for (std::size_t a = 0; a < n; ++a) {
    edges.offsets[a + 1] += edges.offsets[a];
  }
  // Uninitialized: the fill writes every slot, its workers taking the
  // first-touch page faults.
  edges.later = std::make_unique_for_overwrite<Vertex[]>(edges.offsets[n]);
  parallel::forEachBlock(workers, n, kBlock, [&](std::size_t b,
                                                 std::size_t e) {
    for (auto v = static_cast<Vertex>(b); v < e; ++v) {
      const Vertex a = g.labelOf(v);
      Vertex* const first = edges.later.get() + edges.offsets[a];
      Vertex* last = first;
      for (const Vertex w : g.neighbors(v)) {
        if (g.labelOf(w) > a) *last++ = g.labelOf(w);
      }
      std::sort(first, last);
    }
  });
  return edges;
}

}  // namespace detail

}  // namespace selfstab::graph

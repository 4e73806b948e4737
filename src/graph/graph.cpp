#include "graph/graph.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace selfstab::graph {

namespace {

// Inserts x into the sorted vector v if absent; returns true on insertion.
bool sortedInsert(std::vector<Vertex>& v, Vertex x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it != v.end() && *it == x) return false;
  v.insert(it, x);
  return true;
}

// Erases x from the sorted vector v if present; returns true on erasure.
bool sortedErase(std::vector<Vertex>& v, Vertex x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) return false;
  v.erase(it);
  return true;
}

}  // namespace

Graph Graph::fromSortedAdjacency(std::vector<std::vector<Vertex>> adj) {
  Graph g;
  g.adj_ = std::move(adj);
  std::size_t slots = 0;
  for (const auto& nbrs : g.adj_) slots += nbrs.size();
#ifndef NDEBUG
  for (Vertex u = 0; u < g.adj_.size(); ++u) {
    const auto& nbrs = g.adj_[u];
    assert(std::adjacent_find(nbrs.begin(), nbrs.end(),
                              std::greater_equal<>()) == nbrs.end() &&
           "adjacency lists must be strictly ascending");
    for (const Vertex w : nbrs) {
      assert(w != u && g.contains(w) && "loop or out-of-range neighbor");
      assert(std::binary_search(g.adj_[w].begin(), g.adj_[w].end(), u) &&
             "adjacency must be symmetric");
    }
  }
#endif
  assert(slots % 2 == 0);
  g.edgeCount_ = slots / 2;
  g.version_ = g.edgeCount_;  // as if each edge came from one addEdge
  return g;
}

bool Graph::addEdge(Vertex u, Vertex v) {
  assert(contains(u) && contains(v));
  if (u == v) return false;
  if (!sortedInsert(adj_[u], v)) return false;
  sortedInsert(adj_[v], u);
  ++edgeCount_;
  ++version_;
  return true;
}

bool Graph::removeEdge(Vertex u, Vertex v) {
  assert(contains(u) && contains(v));
  if (u == v) return false;
  if (!sortedErase(adj_[u], v)) return false;
  sortedErase(adj_[v], u);
  --edgeCount_;
  ++version_;
  return true;
}

bool Graph::hasEdge(Vertex u, Vertex v) const noexcept {
  if (!contains(u) || !contains(v) || u == v) return false;
  const auto& nbrs = adj_[u];
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::size_t Graph::maxDegree() const noexcept {
  std::size_t best = 0;
  for (const auto& nbrs : adj_) best = std::max(best, nbrs.size());
  return best;
}

std::size_t Graph::minDegree() const noexcept {
  if (adj_.empty()) return 0;
  std::size_t best = adj_[0].size();
  for (const auto& nbrs : adj_) best = std::min(best, nbrs.size());
  return best;
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> result;
  result.reserve(edgeCount_);
  for (Vertex u = 0; u < adj_.size(); ++u) {
    for (const Vertex v : adj_[u]) {
      if (u < v) result.push_back(Edge{u, v});
    }
  }
  return result;
}

void Graph::clearEdges() {
  for (auto& nbrs : adj_) nbrs.clear();
  if (edgeCount_ > 0) ++version_;
  edgeCount_ = 0;
}

bool Graph::toggleEdge(Vertex u, Vertex v) {
  if (hasEdge(u, v)) {
    removeEdge(u, v);
    return false;
  }
  return addEdge(u, v);
}

}  // namespace selfstab::graph

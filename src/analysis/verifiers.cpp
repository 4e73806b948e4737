#include "analysis/verifiers.hpp"

#include <algorithm>
#include <atomic>

#include "graph/algorithms.hpp"
#include "parallel/spin_team.hpp"
#include "parallel/workers.hpp"

namespace selfstab::analysis {

using core::BitState;
using core::ColorState;
using core::DomState;
using core::PointerState;
using graph::Edge;
using graph::Graph;
using graph::Vertex;

std::vector<Edge> matchedEdges(const Graph& g,
                               const std::vector<PointerState>& states) {
  std::vector<Edge> edges;
  for (Vertex v = 0; v < states.size(); ++v) {
    const PointerState& s = states[v];
    if (s.isNull() || s.ptr <= v || !g.hasEdge(v, s.ptr)) continue;
    if (states[s.ptr].ptr == v) edges.push_back(Edge{v, s.ptr});
  }
  return edges;
}

bool isMatching(const Graph& g, std::span<const Edge> edges) {
  std::vector<bool> covered(g.order(), false);
  for (const Edge& e : edges) {
    if (!g.hasEdge(e.u, e.v)) return false;
    if (covered[e.u] || covered[e.v]) return false;
    covered[e.u] = covered[e.v] = true;
  }
  return true;
}

bool isMaximalMatching(const Graph& g, std::span<const Edge> edges) {
  if (!isMatching(g, edges)) return false;
  std::vector<bool> covered(g.order(), false);
  for (const Edge& e : edges) covered[e.u] = covered[e.v] = true;
  for (Vertex u = 0; u < g.order(); ++u) {
    if (covered[u]) continue;
    for (const Vertex v : g.neighbors(u)) {
      if (!covered[v]) return false;  // {u, v} could be added
    }
  }
  return true;
}

MatchingFixpointCheck checkMatchingFixpoint(
    const Graph& g, const std::vector<PointerState>& states) {
  return detail::checkMatchingFixpoint(
      g, states, parallel::workersFor(g.order(), kVerifyGrain));
}

namespace {

// Vertices per block a verifier worker claims.
constexpr std::size_t kVerifyBlock = 4096;

}  // namespace

namespace detail {

// Lemma 8's properties in one pass. Each node holds one pointer, so mutual
// pointers are disjoint, and under type-correctness they are g-edges: the
// matched pairs always form a matching. Every node is M or A⁰ exactly when
// every non-null pointer is returned (a pointer at a node makes that node
// pointed-at, and a returned one makes both ends M). The matching is
// maximal when every unmatched node's neighbors are all matched. The
// neighbor tests assume type-correctness; when it fails they are dropped.
MatchingFixpointCheck checkMatchingFixpoint(
    const Graph& g, const std::vector<PointerState>& states,
    std::size_t workers) {
  MatchingFixpointCheck check;
  const std::size_t n = g.order();
  if (states.size() != n) return check;
  const auto matched = [&](Vertex w) {
    const Vertex p = states[w].ptr;
    return p < n && states[p].ptr == w;
  };
  std::atomic<std::size_t> pairs{0};
  std::atomic<bool> typeCorrect{true};
  std::atomic<bool> maximal{true};
  std::atomic<bool> aloof{true};
  const auto checkBlock = [&](std::size_t begin, std::size_t end) {
    std::size_t ownPairs = 0;
    bool ownTyped = true;
    bool ownMaximal = true;
    bool ownAloof = true;
    for (auto v = static_cast<Vertex>(begin); v < end; ++v) {
      const PointerState& s = states[v];
      if (!s.isNull()) {
        if (!g.hasEdge(v, s.ptr)) {
          ownTyped = false;
          continue;
        }
        if (states[s.ptr].ptr == v) {
          ownPairs += s.ptr > v ? 1 : 0;
          continue;
        }
        ownAloof = false;
      }
      if (ownMaximal) {
        const auto nbrs = g.neighbors(v);
        ownMaximal = std::all_of(nbrs.begin(), nbrs.end(), matched);
      }
    }
    pairs.fetch_add(ownPairs, std::memory_order_relaxed);
    if (!ownTyped) typeCorrect.store(false, std::memory_order_relaxed);
    if (!ownMaximal) maximal.store(false, std::memory_order_relaxed);
    if (!ownAloof) aloof.store(false, std::memory_order_relaxed);
  };
  parallel::forEachBlock(workers, n, kVerifyBlock, checkBlock);
  check.matchedPairs = pairs.load();
  check.typeCorrect = typeCorrect.load();
  if (!check.typeCorrect) return check;
  check.isMatching = true;
  check.isMaximal = maximal.load();
  check.unmatchedAreAloof = aloof.load();
  return check;
}

}  // namespace detail

std::vector<Vertex> membersOf(const std::vector<BitState>& states) {
  std::vector<Vertex> members;
  for (Vertex v = 0; v < states.size(); ++v) {
    if (states[v].in) members.push_back(v);
  }
  return members;
}

std::vector<Vertex> membersOf(const std::vector<DomState>& states) {
  std::vector<Vertex> members;
  for (Vertex v = 0; v < states.size(); ++v) {
    if (states[v].in) members.push_back(v);
  }
  return members;
}

namespace {

std::vector<bool> membershipMask(const Graph& g,
                                 std::span<const Vertex> members) {
  std::vector<bool> in(g.order(), false);
  for (const Vertex v : members) in[v] = true;
  return in;
}

}  // namespace

bool isIndependentSet(const Graph& g, std::span<const Vertex> members) {
  const auto in = membershipMask(g, members);
  for (const Vertex u : members) {
    for (const Vertex v : g.neighbors(u)) {
      if (in[v]) return false;
    }
  }
  return true;
}

bool isMaximalIndependentSet(const Graph& g,
                             std::span<const Vertex> members) {
  return detail::isMaximalIndependentSet(
      g, members, parallel::workersFor(g.order(), kVerifyGrain));
}

// Each vertex scans its neighbors up to the first member: a member must
// find none (independence), a non-member must find one (maximality).
bool detail::isMaximalIndependentSet(const Graph& g,
                                     std::span<const Vertex> members,
                                     std::size_t workers) {
  const std::size_t n = g.order();
  std::vector<std::uint8_t> in(n, 0);
  for (const Vertex v : members) in[v] = 1;
  std::atomic<bool> ok{true};
  const auto checkBlock = [&](std::size_t begin, std::size_t end) {
    for (auto u = static_cast<Vertex>(begin); u < end; ++u) {
      const auto nbrs = g.neighbors(u);
      const bool dominated = std::any_of(nbrs.begin(), nbrs.end(),
                                         [&](Vertex v) { return in[v] != 0; });
      if (dominated == (in[u] != 0)) {
        ok.store(false, std::memory_order_relaxed);
        return;
      }
    }
  };
  parallel::forEachBlock(workers, n, kVerifyBlock, checkBlock);
  return ok.load();
}

bool isDominatingSet(const Graph& g, std::span<const Vertex> members) {
  const auto in = membershipMask(g, members);
  for (Vertex u = 0; u < g.order(); ++u) {
    if (in[u]) continue;
    const auto nbrs = g.neighbors(u);
    if (std::none_of(nbrs.begin(), nbrs.end(),
                     [&](Vertex v) { return in[v]; })) {
      return false;
    }
  }
  return true;
}

bool isMinimalDominatingSet(const Graph& g, std::span<const Vertex> members) {
  if (!isDominatingSet(g, members)) return false;
  const auto in = membershipMask(g, members);

  // dominators[u] = |N[u] ∩ S|.
  std::vector<std::uint32_t> dominators(g.order(), 0);
  for (Vertex u = 0; u < g.order(); ++u) {
    if (in[u]) ++dominators[u];
    for (const Vertex v : g.neighbors(u)) {
      if (in[v]) ++dominators[u];
    }
  }

  // S is minimal iff every member has a private neighbor: either itself
  // (no other dominator) or some non-member neighbor dominated only by it.
  for (const Vertex u : members) {
    if (dominators[u] == 1) continue;  // u is its own private neighbor
    bool hasPrivate = false;
    for (const Vertex v : g.neighbors(u)) {
      if (!in[v] && dominators[v] == 1) {
        hasPrivate = true;
        break;
      }
    }
    if (!hasPrivate) return false;  // S \ {u} still dominates
  }
  return true;
}

// Walks the CSR: g.edges() would materialize all m edges first.
bool isProperColoring(const Graph& g,
                      const std::vector<std::uint32_t>& colors) {
  for (Vertex u = 0; u < g.order(); ++u) {
    for (const Vertex v : g.neighbors(u)) {
      if (colors[u] == colors[v]) return false;
    }
  }
  return true;
}

bool isProperColoring(const Graph& g,
                      const std::vector<ColorState>& states) {
  std::vector<std::uint32_t> colors(states.size());
  for (std::size_t v = 0; v < states.size(); ++v) colors[v] = states[v].color;
  return isProperColoring(g, colors);
}

std::uint32_t colorCount(const std::vector<ColorState>& states) {
  std::uint32_t highest = 0;
  for (const ColorState& s : states) highest = std::max(highest, s.color);
  return states.empty() ? 0 : highest + 1;
}

bool isLeaderTree(const Graph& g, const graph::IdAssignment& ids,
                  const std::vector<core::LeaderState>& states) {
  if (states.size() != g.order()) return false;
  const auto comp = connectedComponents(g);
  const std::size_t componentTotal =
      comp.empty() ? 0 : *std::max_element(comp.begin(), comp.end()) + 1;

  // Leader (max-ID vertex) of every component.
  std::vector<Vertex> leader(componentTotal, graph::kNoVertex);
  for (Vertex v = 0; v < g.order(); ++v) {
    Vertex& best = leader[comp[v]];
    if (best == graph::kNoVertex || ids.less(best, v)) best = v;
  }

  // One BFS from every leader at once: each component holds exactly one,
  // so a vertex's distance is to its own leader. O(n + m) in all.
  const auto truth = graph::bfsDistances(g, leader);
  for (Vertex v = 0; v < g.order(); ++v) {
    const Vertex root = leader[comp[v]];
    const core::LeaderState& s = states[v];
    if (s.root != ids.idOf(root)) return false;
    if (v == root) {
      if (s.dist != 0 || s.parent != graph::kNoVertex) return false;
      continue;
    }
    if (s.dist != truth[v]) return false;
    Vertex expected = graph::kNoVertex;
    for (const Vertex w : g.neighbors(v)) {
      if (truth[w] + 1 != truth[v]) continue;
      if (expected == graph::kNoVertex || ids.less(w, expected)) {
        expected = w;
      }
    }
    if (s.parent != expected) return false;
  }
  return true;
}

bool isShortestPathTree(const Graph& g, const graph::IdAssignment& ids,
                        Vertex root, std::uint32_t cap,
                        const std::vector<core::TreeState>& states) {
  if (states.size() != g.order() || !g.contains(root)) return false;
  const auto truth = bfsDistances(g, root);
  for (Vertex v = 0; v < g.order(); ++v) {
    const core::TreeState& s = states[v];
    if (v == root) {
      if (s.dist != 0 || s.parent != graph::kNoVertex) return false;
      continue;
    }
    if (truth[v] == graph::kUnreachable || truth[v] >= cap) {
      if (s.dist != cap || s.parent != graph::kNoVertex) return false;
      continue;
    }
    if (s.dist != truth[v]) return false;
    // Parent: the minimum-ID neighbor at distance dist-1.
    Vertex expected = graph::kNoVertex;
    for (const Vertex w : g.neighbors(v)) {
      if (truth[w] + 1 != truth[v]) continue;
      if (expected == graph::kNoVertex || ids.less(w, expected)) {
        expected = w;
      }
    }
    if (s.parent != expected) return false;
  }
  return true;
}

}  // namespace selfstab::analysis

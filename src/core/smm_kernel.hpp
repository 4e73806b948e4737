// Flat kernel for algorithm SMM (engine/kernel.hpp fast path).
//
// State mirror: the pointer variables p(i) as one dense
// std::vector<graph::Vertex> (Λ = graph::kNoVertex). Every guard of R1/R2/R3
// reads only p over the CSR neighbor slice, so a node evaluates with zero
// LocalView assembly and zero per-neighbor State* chasing:
//   * p(i)=Λ  — one sweep over the slice collecting proposers (p(j)=i) and
//     null neighbors, then the same selection policies as smm.cpp applied to
//     raw (vertex, id) slots;
//   * p(i)=j  — binary search j in the sorted slice (dangling ⇒ back off),
//     then a single load of p(j) decides R3.
//
// Selection mirrors core/smm.cpp select() case by case — argBest with a
// strict comparator (first minimum wins), Successor's clockwise probe with
// the wrap-around disjunct, Random keyed on hash(roundKey, id(i)) — so the
// chosen neighbor, not just "some eligible neighbor", is identical. The
// KernelDifferential suite checks all policy combinations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/smm.hpp"
#include "engine/kernel.hpp"

namespace selfstab::core {

class SmmKernel final : public engine::FlatKernel<PointerState> {
 public:
  SmmKernel(const graph::Graph& g, const graph::IdAssignment& ids,
            Choice propose, Choice accept)
      : FlatKernel(g, ids), propose_(propose), accept_(accept) {}

  bool sync(const std::vector<PointerState>& states) override {
    topology().refresh();
    const bool resized = ptr_.size() != states.size();
    ptr_.resize(states.size());
    // OR of old ^ new over the copy: branch-free, so it adds no stall to
    // the snapshot loop.
    graph::Vertex diff = 0;
    for (std::size_t v = 0; v < states.size(); ++v) {
      diff |= ptr_[v] ^ states[v].ptr;
      ptr_[v] = states[v].ptr;
    }
    return resized || diff != 0;
  }

  void apply(graph::Vertex v, const PointerState& s) override {
    ptr_[v] = s.ptr;
  }

  void evaluateRange(graph::Vertex begin, graph::Vertex end,
                     std::uint64_t roundKey,
                     engine::MoveList<PointerState>& out) const override {
    Scratch scratch;
    for (graph::Vertex v = begin; v < end; ++v) {
      evaluateOne(v, roundKey, scratch, out);
    }
  }

  void evaluateList(std::span<const graph::Vertex> vertices,
                    std::uint64_t roundKey,
                    engine::MoveList<PointerState>& out) const override {
    Scratch scratch;
    for (const graph::Vertex v : vertices) {
      evaluateOne(v, roundKey, scratch, out);
    }
  }

 private:
  // Candidate slots (indices into a neighbor slice), reused across the
  // vertices of one evaluate call. Function-local to the batch entry points,
  // so concurrent chunk evaluation never shares them.
  struct Scratch {
    std::vector<std::size_t> proposers;
    std::vector<std::size_t> nullNeighbors;
  };

  void evaluateOne(graph::Vertex v, std::uint64_t roundKey, Scratch& scratch,
                   engine::MoveList<PointerState>& out) const {
    const auto nbrs = topology().neighbors(v);
    const graph::Vertex p = ptr_[v];

    if (p == graph::kNoVertex) {
      scratch.proposers.clear();
      scratch.nullNeighbors.clear();
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const graph::Vertex pk = ptr_[nbrs[k]];
        if (pk == v) scratch.proposers.push_back(k);
        if (pk == graph::kNoVertex) scratch.nullNeighbors.push_back(k);
      }
      if (!scratch.proposers.empty()) {
        // R1 [accept a proposal].
        const std::size_t j = select(accept_, v, roundKey, scratch.proposers);
        out.emplace_back(v, PointerState{nbrs[j]});
      } else if (!scratch.nullNeighbors.empty()) {
        // R2 [make a proposal].
        const std::size_t j =
            select(propose_, v, roundKey, scratch.nullNeighbors);
        out.emplace_back(v, PointerState{nbrs[j]});
      }
      return;
    }

    // Pointer set: locate its target among current neighbors.
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), p);
    if (it == nbrs.end() || *it != p) {
      out.emplace_back(v, PointerState{});  // dangling: back off
      return;
    }
    const graph::Vertex targetPtr = ptr_[p];
    if (targetPtr != graph::kNoVertex && targetPtr != v) {
      out.emplace_back(v, PointerState{});  // R3 [back off]
    }
  }

  [[nodiscard]] bool hasNeighbor(graph::Vertex v, graph::Vertex w) const {
    const auto nbrs = topology().neighbors(v);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), w);
    return it != nbrs.end() && *it == w;
  }

  // Mirror of select() in smm.cpp over flat slices.
  [[nodiscard]] std::size_t select(
      Choice choice, graph::Vertex v, std::uint64_t roundKey,
      const std::vector<std::size_t>& candidates) const {
    const auto ids = topology().neighborIds(v);
    const auto argBest = [&](auto betterThan) {
      std::size_t best = candidates.front();
      for (const std::size_t c : candidates) {
        if (betterThan(ids[c], ids[best])) best = c;
      }
      return best;
    };
    switch (choice) {
      case Choice::MinId:
        return argBest([](graph::Id a, graph::Id b) { return a < b; });
      case Choice::MaxId:
        return argBest([](graph::Id a, graph::Id b) { return a > b; });
      case Choice::First:
        return candidates.front();
      case Choice::Successor: {
        const auto nbrs = topology().neighbors(v);
        for (const std::size_t c : candidates) {
          if (nbrs[c] == v + 1 ||
              (v != 0 && nbrs[c] == 0 && !hasNeighbor(v, v + 1))) {
            return c;
          }
        }
        return argBest([](graph::Id a, graph::Id b) { return a < b; });
      }
      case Choice::Random: {
        SplitMix64 sm(hashCombine(roundKey, topology().idOf(v)));
        return candidates[sm.next() % candidates.size()];
      }
    }
    return candidates.front();
  }

  Choice propose_;
  Choice accept_;
  std::vector<graph::Vertex> ptr_;  // p(i), Λ = kNoVertex
};

}  // namespace selfstab::core

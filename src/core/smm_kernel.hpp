// Flat kernel for algorithm SMM (engine/kernel.hpp fast path).
//
// State mirror: the pointer variables p(i) as one dense
// std::vector<graph::Vertex> (Λ = graph::kNoVertex). Every guard of R1/R2/R3
// reads only p over the CSR neighbor slice, so a node evaluates with zero
// LocalView assembly and zero per-neighbor State* chasing:
//   * p(i)=Λ  — one sweep over the slice collecting proposers (p(j)=i) and
//     null neighbors, then the same selection policies as smm.cpp applied to
//     raw (vertex, id) slots;
//   * p(i)=j  — confirm j ∈ N(i) (dangling ⇒ back off), then a single load
//     of p(j) decides R3.
//
// Verified-pointer cache: a pointer can leave N(i) only through a corrupt
// start or a topology change, so checked_[i] holds the last value of p(i)
// shown to be a neighbor at the current Graph::version(). R1/R2 record
// the neighbor they pick (it comes from the slice), and the binary search
// over the slice runs only when p(i) differs from it — after a random start,
// a corruption, a pinned node's revert or a wild pointer. sync() clears the
// cache when the version or n changes. Evaluation writes only the
// evaluated vertex's own slot, so disjoint chunks stay race-free (see the
// FlatKernel contract in engine/kernel.hpp).
//
// Selection mirrors core/smm.cpp select() case by case — argBest with a
// strict comparator (first minimum wins), Successor's clockwise probe with
// the wrap-around disjunct, Random keyed on hash(roundKey, id(i)) — so the
// chosen neighbor, not just "some eligible neighbor", is identical. The
// KernelDifferential suite checks all policy combinations.
#pragma once

#include <algorithm>
#include <cassert>
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

  void sync(const std::vector<PointerState>& states,
            std::vector<graph::Vertex>* changed,
            std::size_t /*workers*/) override {
    const bool resized = ptr_.size() != states.size();
    ptr_.resize(states.size());
    if (resized || checkedVersion_ != graph().version()) {
      checked_.assign(states.size(), graph::kNoVertex);
      checkedVersion_ = graph().version();
    }
    if (changed == nullptr) {
      for (std::size_t v = 0; v < states.size(); ++v) ptr_[v] = states[v].ptr;
      return;
    }
    for (std::size_t v = 0; v < states.size(); ++v) {
      if (ptr_[v] != states[v].ptr) {
        ptr_[v] = states[v].ptr;
        changed->push_back(static_cast<graph::Vertex>(v));
      }
    }
  }

  void apply(const engine::MoveList<PointerState>& moves) override {
    for (const auto& [v, s] : moves) ptr_[v] = s.ptr;
  }

  [[nodiscard]] bool mirrors(
      const std::vector<PointerState>& states) const override {
    if (ptr_.size() != states.size()) return false;
    for (std::size_t v = 0; v < states.size(); ++v) {
      if (ptr_[v] != states[v].ptr) return false;
    }
    return true;
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
    assert(checkedVersion_ == graph().version() &&
           "evaluate after a topology change needs a sync() first");
    const auto nbrs = graph().neighbors(v);
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
        checked_[v] = nbrs[j];
        out.emplace_back(v, PointerState{nbrs[j]});
      } else if (!scratch.nullNeighbors.empty()) {
        // R2 [make a proposal].
        const std::size_t j =
            select(propose_, v, roundKey, scratch.nullNeighbors);
        checked_[v] = nbrs[j];
        out.emplace_back(v, PointerState{nbrs[j]});
      }
      return;
    }

    // Pointer set: confirm its target is a current neighbor, by the cache
    // or else by a search of the sorted slice.
    if (p != checked_[v]) {
      if (!hasNeighbor(v, p)) {
        out.emplace_back(v, PointerState{});  // dangling: back off
        return;
      }
      checked_[v] = p;
    }
    const graph::Vertex targetPtr = ptr_[p];
    if (targetPtr != graph::kNoVertex && targetPtr != v) {
      out.emplace_back(v, PointerState{});  // R3 [back off]
    }
  }

  [[nodiscard]] bool hasNeighbor(graph::Vertex v, graph::Vertex w) const {
    const auto nbrs = graph().neighbors(v);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), w);
    return it != nbrs.end() && *it == w;
  }

  // Mirror of select() in smm.cpp over flat slices.
  [[nodiscard]] std::size_t select(
      Choice choice, graph::Vertex v, std::uint64_t roundKey,
      const std::vector<std::size_t>& candidates) const {
    const auto nbrs = graph().neighbors(v);
    const auto argBest = [&](auto betterThan) {
      std::size_t best = candidates.front();
      graph::Id bestId = ids().idOf(nbrs[best]);
      for (const std::size_t c : candidates) {
        const graph::Id id = ids().idOf(nbrs[c]);
        if (betterThan(id, bestId)) {
          best = c;
          bestId = id;
        }
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
        for (const std::size_t c : candidates) {
          if (nbrs[c] == v + 1 ||
              (v != 0 && nbrs[c] == 0 && !hasNeighbor(v, v + 1))) {
            return c;
          }
        }
        return argBest([](graph::Id a, graph::Id b) { return a < b; });
      }
      case Choice::Random: {
        SplitMix64 sm(hashCombine(roundKey, ids().idOf(v)));
        return candidates[sm.next() % candidates.size()];
      }
    }
    return candidates.front();
  }

  Choice propose_;
  Choice accept_;
  std::vector<graph::Vertex> ptr_;  // p(i), Λ = kNoVertex
  // Per vertex, a pointer value known to be in N(v) at checkedVersion_
  // (kNoVertex: none). Written by evaluation, one slot per evaluated vertex.
  mutable std::vector<graph::Vertex> checked_;
  std::uint64_t checkedVersion_ = 0;
};

}  // namespace selfstab::core

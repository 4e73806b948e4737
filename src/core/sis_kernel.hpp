// Flat kernel for algorithm SIS (engine/kernel.hpp fast path).
//
// State mirror: the membership bits x(i) packed 64-per-word. The only thing
// a node's rules read from a neighbor j is "x(j)=1 ∧ bigger(j,i)", and
// bigger(j,i) depends on IDs alone — fixed between topology changes. So we
// precompute, per node, its *bigger* neighbors as (word index, mask) pairs
// grouped by word: the "∃ bigger neighbor with x=1" test collapses to a few
// `words[w] & mask` probes, 64 potential neighbors per AND. On a geometric
// or power-law graph most bigger-neighbor sets hit only one or two distinct
// words, so R1/R2 evaluation is a handful of loads regardless of degree.
//
// Existence is all the rules need: the generic loop short-circuits on the
// first bigger in-neighbor, and any word hit here witnesses the same
// existential, so decisions are bit-identical by construction.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/sis.hpp"
#include "engine/kernel.hpp"
#include "parallel/spin_team.hpp"

namespace selfstab::core {

class SisKernel final : public engine::FlatKernel<BitState> {
 public:
  SisKernel(const graph::Graph& g, const graph::IdAssignment& ids,
            Seniority seniority)
      : FlatKernel(g, ids), seniority_(seniority) {}

  void sync(const std::vector<BitState>& states,
            std::vector<graph::Vertex>* changed,
            std::size_t workers) override {
    const std::size_t n = states.size();
    if (groupOffsets_.size() != n + 1 || slicesVersion_ != graph().version()) {
      rebuildBiggerSlices(n, workers);
    }
    const std::size_t full = n / 64;
    words_.resize((n + 63) / 64);
    // Branchless packing, one fixed-trip inner loop per word: a converged
    // MIS is an unpredictable bit pattern, so the per-bit branch mispredicts
    // enough to dominate a full reload at scale. Changed slots are the set
    // bits of old ^ new, one XOR per 64 nodes.
    const auto store = [&](std::size_t w, std::uint64_t word) {
      const std::uint64_t diff = words_[w] ^ word;
      words_[w] = word;
      if (changed == nullptr) return;
      for (std::uint64_t d = diff; d != 0; d &= d - 1) {
        changed->push_back(
            static_cast<graph::Vertex>(64 * w + std::countr_zero(d)));
      }
    };
    std::size_t v = 0;
    for (std::size_t w = 0; w < full; ++w) {
      std::uint64_t word = 0;
      for (int b = 0; b < 64; ++b, ++v) {
        word |= static_cast<std::uint64_t>(states[v].in) << b;
      }
      store(w, word);
    }
    if (v < n) {
      std::uint64_t word = 0;
      for (int b = 0; v < n; ++b, ++v) {
        word |= static_cast<std::uint64_t>(states[v].in) << b;
      }
      store(full, word);
    }
  }

  void apply(const engine::MoveList<BitState>& moves) override {
    for (const auto& [v, s] : moves) {
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      if (s.in) {
        words_[v >> 6] |= bit;
      } else {
        words_[v >> 6] &= ~bit;
      }
    }
  }

  [[nodiscard]] bool mirrors(
      const std::vector<BitState>& states) const override {
    if (words_.size() != (states.size() + 63) / 64) return false;
    for (std::size_t v = 0; v < states.size(); ++v) {
      if (((words_[v >> 6] >> (v & 63)) & 1U) != (states[v].in ? 1U : 0U)) {
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] std::size_t mirrorBytes() const noexcept override {
    const std::size_t groups = groupOffsets_.empty() ? 0 : groupOffsets_.back();
    return words_.capacity() * sizeof(std::uint64_t) +
           groupOffsets_.capacity() * sizeof(std::uint32_t) +
           groups * (sizeof(std::uint32_t) + sizeof(std::uint64_t));
  }

  void evaluateRange(graph::Vertex begin, graph::Vertex end,
                     std::uint64_t /*roundKey*/,
                     engine::MoveList<BitState>& out) const override {
    graph::Vertex v = begin;
    while (v < end && (v & 63) != 0) evaluateOne(v++, out);
    // Word-at-a-time middle: a node moves iff x == "∃ bigger neighbor in",
    // so folding 64 verdicts into one move-word turns the per-node emission
    // checks into a single (on quiet rounds never-taken) branch per word.
    // Decisions and emission order are unchanged, so trajectories stay
    // bit-identical with evaluateOne — including across the worker team's
    // unaligned partition boundaries handled above/below.
    for (; v + 64 <= end; v += 64) {
      const std::uint64_t selfWord = words_[v >> 6];
      std::uint64_t biggerWord = 0;
      for (int b = 0; b < 64; ++b) {
        const graph::Vertex u = v + static_cast<graph::Vertex>(b);
        std::uint64_t hit = 0;
        const std::size_t gEnd = groupOffsets_[u + 1];
        for (std::size_t i = groupOffsets_[u]; i < gEnd; ++i) {
          hit |= words_[groupWord_[i]] & groupMask_[i];
        }
        biggerWord |= static_cast<std::uint64_t>(hit != 0) << b;
      }
      std::uint64_t moveWord = ~(selfWord ^ biggerWord);
      while (moveWord != 0) {
        const int b = std::countr_zero(moveWord);
        moveWord &= moveWord - 1;
        out.emplace_back(v + static_cast<graph::Vertex>(b),
                         BitState{((selfWord >> b) & 1U) == 0});
      }
    }
    for (; v < end; ++v) evaluateOne(v, out);
  }

  void evaluateList(std::span<const graph::Vertex> vertices,
                    std::uint64_t /*roundKey*/,
                    engine::MoveList<BitState>& out) const override {
    for (const graph::Vertex v : vertices) evaluateOne(v, out);
  }

 private:
  void evaluateOne(graph::Vertex v, engine::MoveList<BitState>& out) const {
    const bool in = (words_[v >> 6] >> (v & 63)) & 1U;
    std::uint64_t hit = 0;
    const std::size_t end = groupOffsets_[v + 1];
    for (std::size_t i = groupOffsets_[v]; i < end; ++i) {
      hit |= words_[groupWord_[i]] & groupMask_[i];
    }
    const bool biggerNeighborIn = hit != 0;
    if (!in && !biggerNeighborIn) {
      out.emplace_back(v, BitState{true});   // R1 [enter]
    } else if (in && biggerNeighborIn) {
      out.emplace_back(v, BitState{false});  // R2 [leave]
    }
  }

  // Per node, the bigger neighbors folded into (word, mask) groups. Vertex
  // order is ascending within a neighbor slice, so word indices are
  // nondecreasing and one pass groups them. Built in two passes over
  // vertex blocks at the executor's width: count each node's groups,
  // prefix-sum the counts into offsets, then fill each node's groups at its
  // offset. Each pass writes only its own nodes' slots, and a node's groups
  // do not depend on the split, so the result is the same at every thread
  // count. The slices' width is chosen once, for the whole rebuild.
  void rebuildBiggerSlices(std::size_t n, std::size_t workers) {
    graph().withSlices(
        [&](const auto& adj) { rebuildBiggerSlices(adj, n, workers); });
    slicesVersion_ = graph().version();
  }

  template <typename Adj>
  void rebuildBiggerSlices(const Adj& adj, std::size_t n,
                           std::size_t workers) {
    const auto forEachGroup = [&](graph::Vertex v, auto&& emit) {
      const graph::Id selfId = ids().idOf(v);
      std::uint32_t curWord = kNoWord;
      std::uint64_t curMask = 0;
      for (const graph::Vertex u : adj.neighbors(v)) {
        if (!sisBigger(seniority_, ids().idOf(u), selfId)) continue;
        const auto w = static_cast<std::uint32_t>(u >> 6);
        if (w != curWord) {
          if (curWord != kNoWord) emit(curWord, curMask);
          curWord = w;
          curMask = 0;
        }
        curMask |= std::uint64_t{1} << (u & 63);
      }
      if (curWord != kNoWord) emit(curWord, curMask);
    };
    groupOffsets_.assign(n + 1, 0);
    parallel::forEachBlock(workers, n, kSliceBlock, [&](std::size_t b,
                                                        std::size_t e) {
      for (auto v = static_cast<graph::Vertex>(b); v < e; ++v) {
        std::uint32_t count = 0;
        forEachGroup(v, [&](std::uint32_t, std::uint64_t) { ++count; });
        groupOffsets_[v + 1] = count;
      }
    });
    for (std::size_t v = 0; v < n; ++v) {
      groupOffsets_[v + 1] += groupOffsets_[v];
    }
    // Uninitialized: the fill pass writes every slot, so its workers take
    // the first-touch page faults in parallel instead of a serial zeroing.
    const std::size_t groups = groupOffsets_[n];
    groupWord_ = std::make_unique_for_overwrite<std::uint32_t[]>(groups);
    groupMask_ = std::make_unique_for_overwrite<std::uint64_t[]>(groups);
    parallel::forEachBlock(workers, n, kSliceBlock, [&](std::size_t b,
                                                        std::size_t e) {
      for (auto v = static_cast<graph::Vertex>(b); v < e; ++v) {
        std::uint32_t at = groupOffsets_[v];
        forEachGroup(v, [&](std::uint32_t word, std::uint64_t mask) {
          groupWord_[at] = word;
          groupMask_[at] = mask;
          ++at;
        });
      }
    });
  }

  // Vertices per slice-build block: large enough that claiming one is
  // negligible, small enough to balance a skewed degree distribution.
  static constexpr std::size_t kSliceBlock = 4096;

  // Word indices top out at (2^32-1)>>6, so the all-ones value is free as a
  // "no open group" sentinel.
  static constexpr std::uint32_t kNoWord = ~std::uint32_t{0};

  Seniority seniority_;
  std::vector<std::uint64_t> words_;         // x(i) bits, 64 nodes per word
  // CSR over the (word, mask) groups. 32-bit offsets halve the per-node
  // index stream; one group per 12 bytes of mask+word storage means 2^32
  // groups would already need >48 GiB, so narrowing cannot truncate first.
  std::vector<std::uint32_t> groupOffsets_;
  std::unique_ptr<std::uint32_t[]> groupWord_;
  std::unique_ptr<std::uint64_t[]> groupMask_;
  std::uint64_t slicesVersion_ = 0;  // Graph::version() of the groups
};

}  // namespace selfstab::core

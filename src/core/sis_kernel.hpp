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
#include <vector>

#include "core/sis.hpp"
#include "engine/kernel.hpp"

namespace selfstab::core {

class SisKernel final : public engine::FlatKernel<BitState> {
 public:
  SisKernel(const graph::Graph& g, const graph::IdAssignment& ids,
            Seniority seniority)
      : FlatKernel(g, ids), seniority_(seniority) {}

  bool sync(const std::vector<BitState>& states) override {
    const std::size_t n = states.size();
    if (groupOffsets_.size() != n + 1 || slicesVersion_ != graph().version()) {
      rebuildBiggerSlices(n);
    }
    const std::size_t full = n / 64;
    const std::size_t wordCount = (n + 63) / 64;
    const bool resized = words_.size() != wordCount;
    words_.resize(wordCount);
    // Branchless packing, one fixed-trip inner loop per word: a converged
    // MIS is an unpredictable bit pattern, so the per-bit branch mispredicts
    // enough to dominate the snapshot phase at scale. The change report is
    // the OR of old ^ new words, one XOR per 64 nodes.
    std::uint64_t diff = 0;
    std::size_t v = 0;
    for (std::size_t w = 0; w < full; ++w) {
      std::uint64_t word = 0;
      for (int b = 0; b < 64; ++b, ++v) {
        word |= static_cast<std::uint64_t>(states[v].in) << b;
      }
      diff |= words_[w] ^ word;
      words_[w] = word;
    }
    if (v < n) {
      std::uint64_t word = 0;
      for (int b = 0; v < n; ++b, ++v) {
        word |= static_cast<std::uint64_t>(states[v].in) << b;
      }
      diff |= words_[full] ^ word;
      words_[full] = word;
    }
    return resized || diff != 0;
  }

  void apply(graph::Vertex v, const BitState& s) override {
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    if (s.in) {
      words_[v >> 6] |= bit;
    } else {
      words_[v >> 6] &= ~bit;
    }
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
    // bit-identical with evaluateOne — including across the worker pool's
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
  // nondecreasing and one pass groups them.
  void rebuildBiggerSlices(std::size_t n) {
    const graph::Graph& g = graph();
    groupOffsets_.assign(n + 1, 0);
    groupWord_.clear();
    groupMask_.clear();
    for (graph::Vertex v = 0; v < n; ++v) {
      const graph::Id selfId = ids().idOf(v);
      std::uint32_t curWord = kNoWord;
      std::uint64_t curMask = 0;
      for (const graph::Vertex u : g.neighbors(v)) {
        if (!sisBigger(seniority_, ids().idOf(u), selfId)) continue;
        const auto w = static_cast<std::uint32_t>(u >> 6);
        if (w != curWord) {
          if (curWord != kNoWord) {
            groupWord_.push_back(curWord);
            groupMask_.push_back(curMask);
          }
          curWord = w;
          curMask = 0;
        }
        curMask |= std::uint64_t{1} << (u & 63);
      }
      if (curWord != kNoWord) {
        groupWord_.push_back(curWord);
        groupMask_.push_back(curMask);
      }
      groupOffsets_[v + 1] = static_cast<std::uint32_t>(groupWord_.size());
    }
    slicesVersion_ = g.version();
  }

  // Word indices top out at (2^32-1)>>6, so the all-ones value is free as a
  // "no open group" sentinel.
  static constexpr std::uint32_t kNoWord = ~std::uint32_t{0};

  Seniority seniority_;
  std::vector<std::uint64_t> words_;         // x(i) bits, 64 nodes per word
  // CSR over the (word, mask) groups. 32-bit offsets halve the per-node
  // index stream; one group per 12 bytes of mask+word storage means 2^32
  // groups would already need >48 GiB, so narrowing cannot truncate first.
  std::vector<std::uint32_t> groupOffsets_;
  std::vector<std::uint32_t> groupWord_;
  std::vector<std::uint64_t> groupMask_;
  std::uint64_t slicesVersion_ = 0;  // Graph::version() of the groups
};

}  // namespace selfstab::core

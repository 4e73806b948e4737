// Flat kernel for algorithm SMM (engine/kernel.hpp fast path).
//
// State mirror: the pointer variables p(i) as one dense
// std::vector<graph::Vertex> (Λ = graph::kNoVertex). Every guard of R1/R2/R3
// reads only p over the CSR neighbor slice, so a node evaluates with zero
// LocalView assembly and zero per-neighbor State* chasing.
//
// Evaluation runs two passes over each sub-block of kBlock vertices:
//   * pass 1, every vertex, branch-free but for the rare membership search:
//     a pointing node p(i)=j confirms j ∈ N(i) (dangling ⇒ back off) and
//     decides R3 from one load of p(j); a null node is queued for pass 2;
//   * pass 2, each null node: one minimum over 64-bit keys
//       class << 62 | idKey << 31 | slot
//     where class 0 is a proposer (p(j)=i), 1 a null neighbor and 2
//     neither. The minimum's class is the rule that fires (R1 before R2,
//     none for 2) and its slot names the neighbor.
// Moves leave through a branch-free compaction in ascending vertex order,
// the order a one-node-at-a-time loop emits them in.
//
// Selection equals core/smm.cpp select() case by case, so the chosen
// neighbor, not just "some eligible neighbor", is identical. A policy is a
// transform of the idKey field: MinId keeps it, MaxId complements it, and
// First and Random zero it so the slot decides; the slot breaks ties the
// way argBest's strict comparator does (first best wins). The pass keys
// with the propose policy (R2); when a proposer wins and the accept policy
// (R1) keys differently, the slice is keyed once more with it. Successor
// ranks as MinId, and its one qualifying neighbor (v+1, else the
// wrap-around 0) wins when it lies in the winning class. Random counts
// each class in the pass, draws an index into the winning one from
// hash(roundKey, id(i)), and walks the slice once more to find it. The
// KernelDifferential and SmmKeyPath suites check all policy pairs.
//
// idKey is the ID itself when every ID is below 2^31, which costs no array
// of its own; otherwise an order-preserving rank, built once per kernel
// (IdAssignment::randomSparse draws from all 64 bits). Slots take 31 bits
// too, so a graph with a vertex of degree 2^31 or more gets no kernel
// (fits(); makeFlatKernel then returns nullptr).
//
// Verified-pointer cache: a pointer can leave N(i) only through a corrupt
// start or a topology change, so checked_[i] holds the last value of p(i)
// shown to be a neighbor at the current Graph::version(). R1/R2 record
// the neighbor they pick (it comes from the slice), and the binary search
// over the slice runs only when p(i) differs from it — after a random start,
// a corruption, a pinned node's revert or a wild pointer. sync() clears the
// cache when the version or n changes. Evaluation writes only the
// evaluated vertex's own slot, and each batch keeps its sub-block arrays on
// its own stack, so disjoint chunks stay race-free (see the FlatKernel
// contract in engine/kernel.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/smm.hpp"
#include "engine/kernel.hpp"
#include "parallel/spin_team.hpp"

namespace selfstab::core {

class SmmKernel final : public engine::FlatKernel<PointerState> {
 public:
  SmmKernel(const graph::Graph& g, const graph::IdAssignment& ids,
            Choice propose, Choice accept)
      : FlatKernel(g, ids),
        propose_(propose),
        accept_(accept),
        proposeMask_(maskFor(propose)),
        acceptMask_(maskFor(accept)) {
    assert(fits(g) && "slots and ID ranks must fit 31 bits");
    rankWideIds();
  }

  /// True iff every slot index and every ID rank fits the key's 31-bit
  /// fields: no vertex of degree 2^31 or more, at most 2^31 vertices.
  [[nodiscard]] static bool fits(const graph::Graph& g) noexcept {
    return g.maxDegree() <= kField && g.order() <= std::size_t{kField} + 1;
  }

  /// True iff the keys rank IDs through a table (some ID is 2^31 or
  /// more) instead of using the IDs themselves.
  [[nodiscard]] bool ranksIds() const noexcept { return !ranks_.empty(); }

  void sync(const std::vector<PointerState>& states,
            std::vector<graph::Vertex>* changed,
            std::size_t workers) override {
    const std::size_t n = states.size();
    assert(fits(graph()) && "a topology change outgrew the 31-bit slots");
    const bool reset =
        ptr_.size() != n || checkedVersion_ != graph().version();
    ptr_.resize(n);
    if (reset) {
      checked_.resize(n);
      checkedVersion_ = graph().version();
    }
    // One changed list per block, joined in block order: ascending at every
    // width. At width 1 the whole range, even an empty one, is block 0.
    std::vector<std::vector<graph::Vertex>> lists(
        changed == nullptr
            ? 0
            : std::max<std::size_t>(1, (n + kSyncBlock - 1) / kSyncBlock));
    parallel::forEachBlock(workers, n, kSyncBlock, [&](std::size_t b,
                                                       std::size_t e) {
      if (reset) {
        std::fill(checked_.begin() + static_cast<std::ptrdiff_t>(b),
                  checked_.begin() + static_cast<std::ptrdiff_t>(e),
                  graph::kNoVertex);
      }
      if (changed == nullptr) {
        for (std::size_t v = b; v < e; ++v) ptr_[v] = states[v].ptr;
        return;
      }
      std::vector<graph::Vertex>& list = lists[b / kSyncBlock];
      for (std::size_t v = b; v < e; ++v) {
        if (ptr_[v] != states[v].ptr) {
          ptr_[v] = states[v].ptr;
          list.push_back(static_cast<graph::Vertex>(v));
        }
      }
    });
    for (const std::vector<graph::Vertex>& list : lists) {
      changed->insert(changed->end(), list.begin(), list.end());
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

  [[nodiscard]] std::size_t mirrorBytes() const noexcept override {
    return (ptr_.capacity() + checked_.capacity()) * sizeof(graph::Vertex) +
           ranks_.capacity() * sizeof(std::uint32_t);
  }

  void evaluateRange(graph::Vertex begin, graph::Vertex end,
                     std::uint64_t roundKey,
                     engine::MoveList<PointerState>& out) const override {
    evaluate(
        end - begin,
        [begin](std::size_t i) {
          return begin + static_cast<graph::Vertex>(i);
        },
        roundKey, out);
  }

  void evaluateList(std::span<const graph::Vertex> vertices,
                    std::uint64_t roundKey,
                    engine::MoveList<PointerState>& out) const override {
    evaluate(
        vertices.size(), [vertices](std::size_t i) { return vertices[i]; },
        roundKey, out);
  }

 private:
  // Width of the key's ID and slot fields, and the mask of either.
  static constexpr unsigned kFieldBits = 31;
  static constexpr std::uint32_t kField = (std::uint32_t{1} << kFieldBits) - 1;
  // Key classes; "neither" (or an empty slice) means no rule fires.
  static constexpr std::uint32_t kProposer = 0;
  static constexpr std::uint32_t kNeither = 2;
  // Vertices per sub-block: the pass-1 verdicts, the null queue and the
  // compaction stay in L1.
  static constexpr std::size_t kBlock = 256;
  // Vertices per sync() block on the team, as SisKernel's slice blocks.
  static constexpr std::size_t kSyncBlock = 4096;

  // A policy as a transform of the key's ID field: (idKey ^ flip) & keep.
  struct KeyMask {
    std::uint64_t flip = 0;
    std::uint64_t keep = 0;
    friend bool operator==(const KeyMask&, const KeyMask&) = default;
  };

  [[nodiscard]] static constexpr KeyMask maskFor(Choice choice) noexcept {
    switch (choice) {
      case Choice::MinId:
      case Choice::Successor:
        return {0, kField};
      case Choice::MaxId:
        return {kField, kField};
      case Choice::First:
      case Choice::Random:
        break;
    }
    return {0, 0};
  }

  // 0 if w proposes to v (p(w) = v), 1 if p(w) = Λ, 2 otherwise.
  [[nodiscard]] static std::uint32_t classOf(graph::Vertex v,
                                             graph::Vertex pw) noexcept {
    const std::uint32_t notProposer = pw != v;
    return notProposer + (notProposer & (pw != graph::kNoVertex));
  }

  template <typename VertexAt>
  void evaluate(std::size_t count, VertexAt vertexAt, std::uint64_t roundKey,
                engine::MoveList<PointerState>& out) const {
    assert(checkedVersion_ == graph().version() &&
           "evaluate after a topology change needs a sync() first");
    const bool counts = accept_ == Choice::Random || propose_ == Choice::Random;
    // The slices' width is chosen here, once per call: the loops below
    // read one typed Adjacency and carry no width branch.
    graph().withSlices([&](const auto& adj) {
      if (ranksIds()) {
        if (counts) {
          evaluateBlocks<true, true>(adj, count, vertexAt, roundKey, out);
        } else {
          evaluateBlocks<true, false>(adj, count, vertexAt, roundKey, out);
        }
      } else if (counts) {
        evaluateBlocks<false, true>(adj, count, vertexAt, roundKey, out);
      } else {
        evaluateBlocks<false, false>(adj, count, vertexAt, roundKey, out);
      }
    });
  }

  template <bool Ranked, bool Count, typename Adj, typename VertexAt>
  void evaluateBlocks(const Adj& adj, std::size_t count, VertexAt vertexAt,
                      std::uint64_t roundKey,
                      engine::MoveList<PointerState>& out) const {
    std::array<graph::Vertex, kBlock> vertex;
    std::array<graph::Vertex, kBlock> next;  // the move's new pointer
    std::array<std::uint8_t, kBlock> moves;  // 1 iff the vertex moves
    std::array<std::uint16_t, kBlock> nulls;  // block indices of null nodes
    for (std::size_t base = 0; base < count; base += kBlock) {
      const std::size_t len = std::min(kBlock, count - base);

      // Pass 1: pointing nodes (R3, dangling), null nodes queued.
      std::size_t nullCount = 0;
      for (std::size_t i = 0; i < len; ++i) {
        const graph::Vertex v = vertexAt(base + i);
        const graph::Vertex p = ptr_[v];
        const bool isNull = p == graph::kNoVertex;
        bool dangling = false;
        if (!isNull && p != checked_[v]) [[unlikely]] {
          dangling = !hasNeighbor(adj.neighbors(v), p);
          if (!dangling) checked_[v] = p;
        }
        // A null or dangling node reads its own slot, never p(j) for a j
        // outside N(v); a null node's own slot is Λ, so it does not move.
        const graph::Vertex target = ptr_[isNull | dangling ? v : p];
        vertex[i] = v;
        next[i] = graph::kNoVertex;
        moves[i] = static_cast<std::uint8_t>(
            dangling | ((target != graph::kNoVertex) & (target != v)));
        nulls[nullCount] = static_cast<std::uint16_t>(i);
        nullCount += isNull;
      }

      // Pass 2: R1/R2, one key minimum per null node.
      for (std::size_t k = 0; k < nullCount; ++k) {
        const std::size_t i = nulls[k];
        const graph::Vertex v = vertex[i];
        const auto nbrs = adj.neighbors(v);
        std::array<std::uint32_t, 2> classSizes{};
        std::uint64_t best =
            bestKey<Ranked, Count>(v, nbrs, proposeMask_, classSizes);
        if (best >> 62 == kProposer && acceptMask_ != proposeMask_) {
          best = bestKey<Ranked, false>(v, nbrs, acceptMask_, classSizes);
        }
        const auto cls = static_cast<std::uint32_t>(best >> 62);
        if (cls >= kNeither) continue;
        std::size_t slot = static_cast<std::size_t>(best & kField);
        const Choice choice = cls == kProposer ? accept_ : propose_;
        if (choice == Choice::Successor || choice == Choice::Random) {
          slot = repick(choice, v, nbrs, cls, slot, roundKey, classSizes[cls]);
        }
        const graph::Vertex chosen = nbrs[slot];
        checked_[v] = chosen;
        next[i] = chosen;
        moves[i] = 1;
      }

      // Compaction: every vertex is written, only movers advance.
      const std::size_t at = out.size();
      out.resize(at + len);
      std::size_t emitted = at;
      for (std::size_t i = 0; i < len; ++i) {
        out[emitted] = {vertex[i], PointerState{next[i]}};
        emitted += moves[i];
      }
      out.resize(emitted);
    }
  }

  // The minimum key over v's slice, its ID field transformed by `mask`;
  // with Count, also the sizes of classes 0 and 1.
  template <bool Ranked, bool Count, typename Slice>
  [[nodiscard]] std::uint64_t bestKey(
      graph::Vertex v, const Slice& nbrs, KeyMask mask,
      std::array<std::uint32_t, 2>& classSizes) const {
    std::uint64_t best = ~std::uint64_t{0};
    std::uint32_t proposers = 0;
    std::uint32_t nullNeighbors = 0;
    for (std::size_t s = 0; s < nbrs.size(); ++s) {
      const graph::Vertex w = nbrs[s];
      const graph::Vertex pw = ptr_[w];
      // The class in bits 62-63: none for a proposer, bit 62 for a null
      // neighbor, bit 63 for the rest.
      const std::uint64_t classBits = std::uint64_t{pw != v}
                                      << (62 + (pw != graph::kNoVertex));
      const std::uint64_t idKey =
          ((Ranked ? ranks_[w] : ids().idOf(w)) ^ mask.flip) & mask.keep;
      best = std::min(best, classBits | idKey << kFieldBits | s);
      if constexpr (Count) {
        proposers += pw == v;
        nullNeighbors += pw == graph::kNoVertex;
      }
    }
    if constexpr (Count) classSizes = {proposers, nullNeighbors};
    return best;
  }

  // The slot Successor or Random picks within class `cls`, whose key
  // minimum sits at `slot` and which holds `size` candidates.
  template <typename Slice>
  [[nodiscard]] std::size_t repick(Choice choice, graph::Vertex v,
                                   const Slice& nbrs,
                                   std::uint32_t cls, std::size_t slot,
                                   std::uint64_t roundKey,
                                   std::uint32_t size) const {
    if (choice == Choice::Successor) {
      const std::size_t s = successorSlot(v, nbrs);
      if (s < nbrs.size() && classOf(v, ptr_[nbrs[s]]) == cls) return s;
    } else if (choice == Choice::Random) {
      SplitMix64 sm(hashCombine(roundKey, ids().idOf(v)));
      std::uint64_t rank = sm.next() % size;
      for (std::size_t s = 0;; ++s) {
        if (classOf(v, ptr_[nbrs[s]]) == cls && rank-- == 0) return s;
      }
    }
    return slot;
  }

  // The one neighbor Successor prefers: the slot of v+1, else (v ≠ 0) of
  // the wrap-around 0, else nbrs.size().
  template <typename Slice>
  [[nodiscard]] static std::size_t successorSlot(graph::Vertex v,
                                                 const Slice& nbrs) {
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v + 1);
    if (it != nbrs.end() && *it == v + 1) {
      return static_cast<std::size_t>(it - nbrs.begin());
    }
    if (v != 0 && !nbrs.empty() && nbrs.front() == 0) return 0;
    return nbrs.size();
  }

  template <typename Slice>
  [[nodiscard]] static bool hasNeighbor(const Slice& nbrs, graph::Vertex w) {
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), w);
    return it != nbrs.end() && *it == w;
  }

  // Fills ranks_ with each vertex's ID rank when some ID does not fit the
  // key's field; leaves it empty (keys are the IDs) otherwise.
  void rankWideIds() {
    const std::size_t n = ids().order();
    bool narrow = true;
    for (graph::Vertex v = 0; v < n; ++v) narrow &= ids().idOf(v) <= kField;
    if (narrow) return;
    std::vector<graph::Vertex> byId(n);
    std::iota(byId.begin(), byId.end(), graph::Vertex{0});
    std::sort(byId.begin(), byId.end(), [&](graph::Vertex a, graph::Vertex b) {
      return ids().idOf(a) < ids().idOf(b);
    });
    ranks_.resize(n);
    std::uint32_t rank = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (k > 0 && ids().idOf(byId[k]) != ids().idOf(byId[k - 1])) ++rank;
      ranks_[byId[k]] = rank;
    }
  }

  Choice propose_;
  Choice accept_;
  KeyMask proposeMask_;                // R2's policy as a key transform
  KeyMask acceptMask_;                 // R1's
  std::vector<std::uint32_t> ranks_;   // ID ranks, or empty: keys are IDs
  // The mirror and the cache are sized unwritten: sync() fills them on
  // the team.
  graph::BulkVector<graph::Vertex> ptr_;  // p(i), Λ = kNoVertex
  // Per vertex, a pointer value known to be in N(v) at checkedVersion_
  // (kNoVertex: none). Written by evaluation, one slot per evaluated vertex.
  mutable graph::BulkVector<graph::Vertex> checked_;
  std::uint64_t checkedVersion_ = 0;
};

}  // namespace selfstab::core

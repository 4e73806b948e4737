// The paper's execution model: synchronous rounds.
//
// Section 2 defines a round as "a period of time in which each node in the
// system receives beacon messages from all its neighbors"; a node then
// evaluates its rules on that consistent snapshot and all privileged nodes
// move simultaneously. SyncRunner implements exactly that semantics: one
// snapshot per round, every enabled node moves.
//
// It is the repo's only round executor, and it is exact and adaptive. A
// node's rules read only its closed neighborhood N[v], so after a round
// only N[moved] can hold a newly enabled node: the work set of round t+1 is
// N[moved(t)] ∪ N[edited], edited being the slots the caller changed and
// named (announce) or left to a diff (invalidateSchedule). The set lives in
// a bitset that each team block marks for its own movers. A round walks its
// set bits in ascending order while the set is small and sweeps every
// vertex once it holds more than a fixed share of the graph — the
// sparse/dense switch of direction-optimizing BFS (Beamer, Asanović and
// Patterson, SC 2012). An empty set is a quiet round: no evaluation, no
// team dispatch. The kernel mirror stays hot through FlatKernel::apply at
// commit time, so no round reloads all n states. A topology change
// (Graph::version()) marks everyone. Protocols whose decisions read beyond
// N[v] (Protocol::readsBeyondNeighborhood) sweep every round. Every node
// outside the pending set is disabled, so liveEnabled() answers "is any
// node enabled?" by evaluating that set alone, without running the round.
//
// Every round goes through a FlatKernel (engine/kernel.hpp): a compiled
// protocol kernel when one is installed (setKernel), otherwise the
// GenericKernel adapter. The Graph is the run's one CSR adjacency: the
// kernel, isFixpoint, the work-set marks and the chunk weights all read it
// directly. The round is embarrassingly parallel — every node reads only
// the snapshot S_t and the commit writes each moved node's own slot — so
// with threads > 1 the evaluate phase and the fixpoint sweep are split into
// degree-weighted contiguous blocks (weight deg(v)+1, so power-law hubs
// spread across workers), kBlocksPerWorker per worker, dispatched at width
// `threads` on parallel::team(). Workers claim blocks in ascending order
// as they free up, since a vertex's cost also depends on its state and ID
// (a static split measured workers idle for ~40% of the evaluate phase on
// a 10^6-node SMM run). Each block fills its own move queue; once every
// block is evaluated, a busy round's queues are committed on the team, each
// by the worker that filled it. Blocks hold disjoint vertex ranges, so the
// commit writes what a serial one in block order would, and trajectories
// are bit-identical at every thread count, and also when another thread's
// dispatch makes this one run inline; threads = 1 runs inline with no
// dispatch, partition pass or atomics, and so do work sets and commits too
// small to pay for a team barrier. run()
// lets the team's helpers park when it returns, unless another thread
// dispatched last, so they do not spin while the caller does other work.
//
// Protocols must be thread-compatible for threads > 1: onRound() and
// isStable() are const and may run concurrently for different vertices.
// Every protocol in core/ is a stateless evaluator.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "engine/kernel.hpp"
#include "engine/protocol.hpp"
#include "engine/runner_telemetry.hpp"
#include "engine/schedule.hpp"
#include "engine/view_builder.hpp"
#include "graph/rng.hpp"
#include "parallel/spin_team.hpp"

namespace selfstab::engine {

/// Outcome of a bounded run.
struct RunResult {
  std::size_t rounds = 0;      ///< rounds executed (not counting the final
                               ///< all-quiet verification round)
  std::size_t totalMoves = 0;  ///< sum of per-round move counts
  bool stabilized = false;     ///< reached a global fixpoint within budget

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

/// Rounds that move fewer nodes than this commit inline even with a team.
/// An inline commit costs about 4 ns a move (SMM at 10^6 nodes: 22M moves
/// in 0.08 s), so the threshold is ~15 us of work against a dispatch of
/// ~1 us while the helpers still spin from the evaluate phase, the only
/// phase that can produce this many moves (docs/PERFORMANCE.md, "Round
/// executor").
inline constexpr std::size_t kTeamCommit = 4096;

template <typename State>
class SyncRunner {
 public:
  /// Observer invoked after every executed round with (roundIndex,
  /// statesBefore, statesAfter, movesThisRound). roundIndex is 0-based: the
  /// transition S_t -> S_{t+1} of the paper reports index t.
  using Observer = std::function<void(std::size_t, const std::vector<State>&,
                                      const std::vector<State>&, std::size_t)>;

  /// `threads` = 0 is treated as 1: the width of every team dispatch.
  SyncRunner(const Protocol<State>& protocol, const graph::Graph& g,
             const graph::IdAssignment& ids, std::uint64_t runSeed = 0,
             Schedule schedule = Schedule::Dense, std::size_t threads = 1)
      : protocol_(&protocol),
        g_(&g),
        ids_(&ids),
        runSeed_(runSeed),
        schedule_(schedule),
        kernel_(std::make_unique<GenericKernel<State>>(protocol, g, ids)),
        workerSeconds_(std::max<std::size_t>(threads, 1)),
        chunks_(workerSeconds_.size() > 1
                    ? workerSeconds_.size() * kBlocksPerWorker
                    : 1) {
    assert(ids.order() == g.order());
  }

  SyncRunner(const SyncRunner&) = delete;
  SyncRunner& operator=(const SyncRunner&) = delete;

  /// The protocol's canonical clean start.
  [[nodiscard]] std::vector<State> initialStates() const {
    const auto n = g_->order();
    std::vector<State> states;
    states.reserve(n);
    for (graph::Vertex v = 0; v < n; ++v) {
      states.push_back(protocol_->initialState(v));
    }
    return states;
  }

  /// Attaches metric/event sinks (either may be null; pass nulls to
  /// detach). Safe between rounds, not while step() is in flight.
  /// Telemetry is purely observational — trajectories are bit-identical
  /// with or without it — and with no registry attached step() performs no
  /// clock reads or atomic writes at all.
  void attachTelemetry(telemetry::Registry* registry,
                       telemetry::EventLog* events = nullptr) {
    metrics_ = resolveRunnerMetrics(registry, threadCount());
    events_ = events;
  }

  /// Executes one synchronous round in place; returns the number of moves.
  ///
  /// Three phases, each timed when telemetry is attached: *snapshot* (bring
  /// the kernel mirror to S_t — a full reload only on the first round, after
  /// a kernel swap or a topology change, a diff after announced edits, and
  /// nothing otherwise — and pick the walk), *evaluate* (run the rules of
  /// the work set against the mirror, chunked across the team when threads
  /// > 1, and mark the movers' closed neighborhoods for the next round),
  /// *commit* (apply the moves to `states` and the mirror, forming S_{t+1}).
  ///
  /// Soundness: a rule reads only N[v], so a node outside N[moved] ∪
  /// N[edited] sees the closed neighborhood its last (disabled) evaluation
  /// saw and stays disabled. Every edit of `states` between rounds must be
  /// named with announce() or covered by invalidateSchedule(); Debug builds
  /// assert it.
  std::size_t step(std::vector<State>& states) {
    assert(states.size() == g_->order());
    const telemetry::ScopedTimer roundTimer(metrics_.roundDuration);
    const std::uint64_t key = roundKey(round_);
    const std::size_t n = states.size();
    Walk walk = Walk::Quiet;
    {
      const telemetry::ScopedTimer t(metrics_.snapshotDuration);
      walk = prepare(states);
    }
    const std::size_t evaluated =
        walk == Walk::Sweep ? n : walk == Walk::List ? work_.size() : 0;
    {
      const telemetry::ScopedTimer t(metrics_.evaluateDuration);
      try {
        evaluate(walk, n, key);
      } catch (...) {
        // This round's marks are spent and the next ones half made: start
        // over from a full reload.
        synced_ = false;
        throw;
      }
    }
    std::size_t moves = 0;
    {
      const telemetry::ScopedTimer t(metrics_.commitDuration);
      moves = commit(states);
    }
    return finishRound(moves, evaluated, n);
  }

  /// Calls f(v) for every vertex the last step() moved, in ascending order
  /// (the commit queues, read back). Empty before the first step.
  template <typename F>
  void forEachMoved(F&& f) const {
    for (const Chunk& chunk : chunks_) {
      for (const auto& move : chunk.moves) f(move.first);
    }
  }

  /// Announces that `states` was edited behind the runner's back in slots
  /// the caller does not name (run() on entry, corruptAndReschedule): the
  /// next round diffs the kernel mirror against `states` once, O(n), and
  /// adds the closed neighborhoods of the changed slots to its work set.
  /// Topology edits through the runner's own Graph reference need no call:
  /// a Graph::version() change marks every node.
  void invalidateSchedule() noexcept { edited_ = true; }

  /// Names one slot of `states` that the caller edited behind the runner's
  /// back (a fault campaign's corruption or a pinned node's revert): the
  /// next round, or liveEnabled(), copies states[v] into the kernel mirror
  /// (FlatKernel::apply) and adds N[v] to the work set, in place of
  /// invalidateSchedule()'s O(n) diff. Name exactly the slots whose state
  /// differs from the one the runner last committed or was given: a changed
  /// slot left out breaks the work set (Debug builds assert), and an
  /// unchanged one named widens it, which moves nothing but shows in the
  /// round events' "active" counts. Naming a slot twice is harmless.
  void announce(graph::Vertex v) { announced_.push_back(v); }

  [[nodiscard]] Schedule schedule() const noexcept { return schedule_; }

  /// Installs a compiled protocol kernel (core/kernels.hpp) as the
  /// evaluation path for subsequent rounds; nullptr reverts to the generic
  /// adapter. The kernel must mirror this runner's protocol — trajectories
  /// stay bit-identical either way (the KernelDifferential suite enforces
  /// it) — and be built over this runner's own Graph and IdAssignment
  /// objects (else std::invalid_argument): both read the same adjacency.
  /// Safe between rounds; the new kernel starts with a full reload, and the
  /// next round evaluates every node.
  void setKernel(std::unique_ptr<FlatKernel<State>> kernel) {
    if (kernel != nullptr &&
        (&kernel->graph() != g_ || &kernel->ids() != ids_)) {
      throw std::invalid_argument("setKernel: kernel over another topology");
    }
    flat_ = kernel != nullptr;
    kernel_ = flat_ ? std::move(kernel)
                    : std::make_unique<GenericKernel<State>>(*protocol_, *g_,
                                                             *ids_);
    synced_ = false;
  }

  /// Which evaluation path step() is on.
  [[nodiscard]] Kernel kernel() const noexcept {
    return flat_ ? Kernel::Flat : Kernel::Generic;
  }

  /// Bytes held by the kernel's mirror and topology caches.
  [[nodiscard]] std::size_t kernelMirrorBytes() const noexcept {
    return kernel_->mirrorBytes();
  }

  [[nodiscard]] std::size_t threadCount() const noexcept {
    return workerSeconds_.size();
  }

  /// Runs until a fixpoint or until maxRounds rounds have executed. The
  /// final zero-move verification round is not counted in
  /// RunResult::rounds, matching the paper's convention that "stabilizes in
  /// k rounds" means S_k is stable. For randomized wrappers
  /// (core::Synchronized), a zero-move round in which some node still has
  /// an enabled rule — everyone lost its neighborhood lottery — is *not* a
  /// fixpoint; it counts as a round of scheduling delay and the run
  /// continues. `states` may have been edited since the last step(): run()
  /// announces that itself (invalidateSchedule) before its first round.
  /// The team's helpers park when it returns, until the next dispatch.
  RunResult run(std::vector<State>& states, std::size_t maxRounds,
                const Observer& observer = nullptr) {
    invalidateSchedule();
    RunResult result;
    while (result.rounds < maxRounds) {
      const std::size_t before = round_;
      std::vector<State> prev;
      if (observer) prev = states;
      const std::size_t moves = step(states);
      if (observer) observer(before, prev, states, moves);
      if (moves == 0 && isFixpoint(states)) {
        result.stabilized = true;
        break;
      }
      ++result.rounds;
      result.totalMoves += moves;
    }
    if (!result.stabilized) {
      // Budget exhausted; check whether we happen to sit on a fixpoint.
      result.stabilized = isFixpoint(states);
    }
    if (threadCount() > 1) parallel::team().rest();
    return result;
  }

  /// True if no node has an enabled rule in `states` (modulo scheduling —
  /// see Protocol::isStable), skipping every v with frozen[v] != 0 when a
  /// mask is given (a fault campaign's masked stability). Always asks the
  /// protocol through LocalViews: `states` may be any external vector that
  /// no kernel mirror has seen. With threads > 1 the sweep runs block by
  /// block across the team with a shared early-exit flag; the verdict is
  /// exact either way.
  [[nodiscard]] bool isFixpoint(const std::vector<State>& states,
                                std::span<const std::uint8_t> frozen = {}) {
    const std::uint64_t key = roundKey(round_);
    return !anyBlock(states.size(), [&](std::size_t begin, std::size_t end,
                                        const std::atomic<bool>* stop) {
      return !rangeStable(states, frozen, key, begin, end, stop);
    });
  }

  /// True if some vertex v with frozen[v] == 0 (any vertex, for an empty
  /// mask) would move if the next round ran now. Syncs the kernel mirror
  /// as a round does (announced slots, a pending diff, a topology change),
  /// then evaluates the pending work set through the installed kernel — its
  /// set bits, or every vertex when the next round would sweep — and stops
  /// at the first live mover. The work set is left for the next step(); no
  /// round is counted, timed or logged. For a local protocol a node outside
  /// the set is disabled, so this is exactly "some live node is enabled":
  /// the negation of masked stability, and with no mask of a fixpoint. The
  /// edits it syncs count as given: a later edit that puts such a slot back
  /// must be named again, and leaves that slot's neighborhood in the set,
  /// where a diff at the round would have found nothing.
  [[nodiscard]] bool liveEnabled(const std::vector<State>& states,
                                 std::span<const std::uint8_t> frozen = {}) {
    assert(states.size() == g_->order());
    syncMirror(states);
    const std::size_t n = states.size();
    const std::uint64_t key = roundKey(round_);
    const auto live = [&](const MoveList<State>& moves) {
      return std::any_of(moves.begin(), moves.end(), [&](const auto& move) {
        return frozen.empty() || frozen[move.first] == 0;
      });
    };
    if (schedule_ == Schedule::Sweep || markAll_ ||
        protocol_->readsBeyondNeighborhood() ||
        (schedule_ == Schedule::Dense && marked_ > sweepLimit(n))) {
      return anyBlock(n, [&](std::size_t begin, std::size_t end,
                             const std::atomic<bool>* stop) {
        MoveList<State> out;
        for (std::size_t b = begin; b < end; b += kPeekBlock) {
          if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
            return false;
          }
          out.clear();
          kernel_->evaluateRange(
              static_cast<graph::Vertex>(b),
              static_cast<graph::Vertex>(std::min(end, b + kPeekBlock)), key,
              out);
          if (live(out)) return true;
        }
        return false;
      });
    }
    if (marked_ == 0) return false;
    peekList_.clear();
    const auto flush = [&] {
      peekMoves_.clear();
      kernel_->evaluateList(peekList_, key, peekMoves_);
      peekList_.clear();
      return live(peekMoves_);
    };
    for (std::size_t w = 0; w < marks_.size(); ++w) {
      for (std::uint64_t bits = marks_[w]; bits != 0; bits &= bits - 1) {
        peekList_.push_back(static_cast<graph::Vertex>(64 * w) +
                            static_cast<graph::Vertex>(std::countr_zero(bits)));
        if (peekList_.size() == kPeekBlock && flush()) return true;
      }
    }
    return !peekList_.empty() && flush();
  }

  /// Vertices privileged in `states` (diagnostics and daemon baselines).
  [[nodiscard]] std::vector<graph::Vertex> enabledVertices(
      const std::vector<State>& states) {
    const std::uint64_t key = roundKey(round_);
    std::vector<NeighborRef<State>> buffer;
    std::vector<graph::Vertex> enabled;
    for (graph::Vertex v = 0; v < states.size(); ++v) {
      if (isEnabled(*protocol_,
                    buildView(*g_, *ids_, v, states, key, buffer))) {
        enabled.push_back(v);
      }
    }
    return enabled;
  }

  [[nodiscard]] std::size_t round() const noexcept { return round_; }

  /// Per-round entropy shared by all nodes: hash of (runSeed, round).
  [[nodiscard]] std::uint64_t roundKey(std::size_t r) const noexcept {
    return hashCombine(runSeed_, r);
  }

 private:
  // How a round walks its work set.
  enum class Walk : std::uint8_t { Quiet, List, Sweep };

  // Brings the kernel mirror to `states` and adds the closed neighborhoods
  // of the edited slots to the marks: a full reload on the first round,
  // after a kernel swap or a topology change (and every round of the Sweep
  // oracle), a diff after invalidateSchedule(), the announced slots alone
  // otherwise. A second call with nothing edited in between does nothing,
  // so liveEnabled() may run it ahead of the round's own.
  void syncMirror(const std::vector<State>& states) {
    const std::size_t n = states.size();
    if (schedule_ == Schedule::Sweep || !synced_ ||
        graphVersion_ != g_->version()) {
      kernel_->sync(states, nullptr, threadCount());
      announced_.clear();
      edited_ = false;
      if (schedule_ == Schedule::Sweep) return;
      synced_ = true;
      graphVersion_ = g_->version();
      marks_.assign((n + 63) / 64, 0);
      marked_ = 0;
      markAll_ = true;
    } else if (edited_) {
      edited_ = false;
      announced_.clear();
      changed_.clear();
      kernel_->sync(states, &changed_, threadCount());
      for (const graph::Vertex v : changed_) {
        marked_ += markClosed<false>(v, g_->neighbors(v));
      }
    } else if (!announced_.empty()) {
      pushed_.clear();
      for (const graph::Vertex v : announced_) {
        pushed_.emplace_back(v, states[v]);
        marked_ += markClosed<false>(v, g_->neighbors(v));
      }
      announced_.clear();
      kernel_->apply(pushed_);
    }
    assert(kernel_->mirrors(states) &&
           "states edited without announce() or invalidateSchedule()");
  }

  // Snapshot phase: brings the kernel mirror to `states` and turns the
  // marks into this round's walk, leaving the bitset clear for the marks
  // the round itself will make.
  Walk prepare(const std::vector<State>& states) {
    const std::size_t n = states.size();
    syncMirror(states);
    if (schedule_ == Schedule::Sweep) return Walk::Sweep;
    const bool all = markAll_ || protocol_->readsBeyondNeighborhood();
    const std::size_t marked = marked_;
    markAll_ = false;
    marked_ = 0;
    if (all || (schedule_ == Schedule::Dense && marked > sweepLimit(n))) {
      if (marked > 0) std::fill(marks_.begin(), marks_.end(), 0);
      if (schedule_ == Schedule::Dense) return Walk::Sweep;
      work_.resize(n);
      std::iota(work_.begin(), work_.end(), graph::Vertex{0});
      return Walk::List;
    }
    if (marked == 0) return Walk::Quiet;
    work_.clear();
    for (std::size_t w = 0; w < marks_.size(); ++w) {
      if (marks_[w] == 0) continue;
      for (std::uint64_t bits = marks_[w]; bits != 0; bits &= bits - 1) {
        work_.push_back(static_cast<graph::Vertex>(64 * w) +
                        static_cast<graph::Vertex>(std::countr_zero(bits)));
      }
      marks_[w] = 0;
    }
    return Walk::List;
  }

  // The sparse/dense switch: a Dense round sweeps once its work set holds
  // more than n / kSweepShare vertices. Measured (bench/micro_active_set,
  // docs/PERFORMANCE.md "Round executor"): a list of n/8 random vertices
  // costs 0.12-0.30 of a sweep, n/2 still 0.44-0.66, on one thread; the
  // margin pays for the list's serial extraction and its full marking on
  // the team.
  static constexpr std::size_t kSweepShare = 8;
  [[nodiscard]] static std::size_t sweepLimit(std::size_t n) noexcept {
    return n / kSweepShare;
  }
  // Work lists shorter than this are evaluated inline even with a team.
  // Set when an empty 4-worker dispatch took 10-20 us: about what SIS's
  // kernel needs for 256 listed vertices (~20 ns each), while the generic
  // kernel (~240 ns each) already gains from a dispatch there. On the team
  // it takes ~1 us while the helpers spin and 20-30 us once they have
  // parked (docs/PERFORMANCE.md, "Round executor").
  static constexpr std::size_t kInlineList = 256;
  // Vertices liveEnabled() evaluates between checks for a live mover (and,
  // on the team, for another block's hit).
  static constexpr std::size_t kPeekBlock = 256;

  // Evaluates this round's work — every vertex, or the ascending work list
  // — into the chunks' move queues, and marks each mover's closed
  // neighborhood for the next round: inline as one chunk, or on the team,
  // each worker claiming the next unclaimed block until none is left. Every
  // block is evaluated by exactly one worker into its own queue.
  //
  // Marking stops early once the next round is sure to sweep anyway (a Dense
  // work set past sweepLimit): the marks only decide between "sweep" and a
  // list, and a list needs them all. Non-local protocols and the Sweep
  // oracle mark nothing.
  void evaluate(Walk walk, std::size_t n, std::uint64_t key) {
    if (walk == Walk::Quiet) {
      for (Chunk& chunk : chunks_) chunk.moves.clear();
      return;
    }
    const bool all = walk == Walk::Sweep;
    const std::size_t count = all ? n : work_.size();
    const bool mark = schedule_ != Schedule::Sweep &&
                      !protocol_->readsBeyondNeighborhood();
    const std::size_t limit = schedule_ == Schedule::Dense
                                  ? sweepLimit(n)
                                  : std::numeric_limits<std::size_t>::max();
    if (threadCount() == 1 || (!all && count < kInlineList)) {
      for (Chunk& chunk : chunks_) chunk.moves.clear();
      evaluateChunk(chunks_[0].moves, all, 0, count, key);
      if (mark) marked_ = markMoves<false>(chunks_[0].moves, limit);
      return;
    }
    const std::vector<std::size_t>& bounds = partition(all, count);
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> marked{0};
    parallel::team().run(threadCount(), [&](std::size_t t) {
      const telemetry::ScopedTimer timer(metrics_.workerChunkDuration);
      for (std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
           b < chunks_.size();
           b = next.fetch_add(1, std::memory_order_relaxed)) {
        chunks_[b].owner = t;
        evaluateChunk(chunks_[b].moves, all, bounds[b], bounds[b + 1], key);
        if (!mark) continue;
        const std::size_t sofar = marked.load(std::memory_order_relaxed);
        if (sofar > limit) continue;
        marked.fetch_add(markMoves<true>(chunks_[b].moves, limit - sofar),
                         std::memory_order_relaxed);
      }
      // Own slot only; the caller reads after the team barrier.
      workerSeconds_[t] = timer.elapsedSeconds();
    });
    marked_ = marked.load(std::memory_order_relaxed);
  }

  // Commit phase: writes every block's moves into `states` and the kernel
  // mirror, and returns how many there were. Inline for a round of fewer
  // than kTeamCommit moves; otherwise on the team, where the worker that
  // evaluated a block commits it, while its moves and their slots are
  // still in that worker's cache. Blocks hold disjoint vertex ranges whose
  // bounds fall on 64-vertex words (partition), so concurrent apply() calls
  // write disjoint slots, also in a mirror that packs 64 slots to a word.
  std::size_t commit(std::vector<State>& states) {
    std::size_t moves = 0;
    for (const Chunk& chunk : chunks_) moves += chunk.moves.size();
    const auto commitChunk = [&](Chunk& chunk) {
      if (chunk.moves.empty()) return;
      kernel_->apply(chunk.moves);
      for (auto& [v, next] : chunk.moves) states[v] = std::move(next);
    };
    if (threadCount() == 1 || moves < kTeamCommit) {
      for (Chunk& chunk : chunks_) commitChunk(chunk);
      return moves;
    }
    parallel::team().run(threadCount(), [&](std::size_t t) {
      for (Chunk& chunk : chunks_) {
        if (chunk.owner == t) commitChunk(chunk);
      }
    });
    return moves;
  }

  void evaluateChunk(MoveList<State>& out, bool all, std::size_t begin,
                     std::size_t end, std::uint64_t key) const {
    out.clear();
    if (all) {
      kernel_->evaluateRange(static_cast<graph::Vertex>(begin),
                             static_cast<graph::Vertex>(end), key, out);
    } else {
      kernel_->evaluateList(
          std::span<const graph::Vertex>(work_).subspan(begin, end - begin),
          key, out);
    }
  }

  // Marks N[v] of every mover into the work-set bitset and returns how many
  // bits were newly set — or stops once that exceeds `budget`. Team blocks
  // mark concurrently (Atomic): a relaxed load skips bits already set,
  // which in a busy round is most of them, and fetch_or claims the rest;
  // the team barrier publishes the bitset to the next round. The slices'
  // width is chosen once per call.
  template <bool Atomic>
  std::size_t markMoves(const MoveList<State>& moves, std::size_t budget) {
    return g_->withSlices([&](const auto& adj) {
      std::size_t count = 0;
      for (const auto& move : moves) {
        count += markClosed<Atomic>(move.first, adj.neighbors(move.first));
        if (count > budget) break;
      }
      return count;
    });
  }

  // Marks v and its slice `nbrs`.
  template <bool Atomic, typename Slice>
  std::size_t markClosed(graph::Vertex v, const Slice& nbrs) {
    std::size_t count = markBit<Atomic>(v);
    for (const graph::Vertex w : nbrs) count += markBit<Atomic>(w);
    return count;
  }

  template <bool Atomic>
  std::size_t markBit(graph::Vertex v) {
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    std::uint64_t& word = marks_[v >> 6];
    if constexpr (Atomic) {
      std::atomic_ref<std::uint64_t> shared(word);
      if ((shared.load(std::memory_order_relaxed) & bit) != 0) return 0;
      return (shared.fetch_or(bit, std::memory_order_relaxed) & bit) == 0 ? 1
                                                                          : 0;
    } else {
      if ((word & bit) != 0) return 0;
      word |= bit;
      return 1;
    }
  }

  // Degree-weighted block boundaries for the team: block b holds work items
  // [bounds[b], bounds[b+1]). Weighting by deg(v)+1 balances the neighbor
  // scan, not the item count (the worker_imbalance_ratio gauge tracks the
  // effect). Each interior bound then moves to a 64-vertex word boundary,
  // so no two blocks hold vertices of one word (the team commit relies on
  // it): a range bound rounds down, a list bound moves past the items that
  // share its word. The full-range split depends only on (graph version,
  // n), so it is cached across rounds and kernel swaps; work lists are
  // split afresh each round.
  const std::vector<std::size_t>& partition(bool all, std::size_t count) {
    const std::size_t parts = chunks_.size();
    if (!all) {
      listBounds_ = weightedBoundaries(count, parts, [&](std::size_t i) {
        return static_cast<std::uint64_t>(g_->degree(work_[i])) + 1;
      });
      for (std::size_t b = 1; b < parts; ++b) {
        std::size_t i = std::max(listBounds_[b], listBounds_[b - 1]);
        while (i > 0 && i < count && (work_[i] >> 6) == (work_[i - 1] >> 6)) {
          ++i;
        }
        listBounds_[b] = i;
      }
      return listBounds_;
    }
    if (denseBounds_.empty() || denseBounds_.back() != count ||
        denseBoundsVersion_ != g_->version()) {
      denseBounds_ = weightedBoundaries(count, parts, [&](std::size_t i) {
        return static_cast<std::uint64_t>(
                   g_->degree(static_cast<graph::Vertex>(i))) +
               1;
      });
      for (std::size_t b = 1; b < parts; ++b) {
        denseBounds_[b] &= ~std::size_t{63};
      }
      denseBoundsVersion_ = g_->version();
    }
    return denseBounds_;
  }

  // True if hit(begin, end, stop) is true for some block of [0, n): one
  // block at threads = 1, else the team's degree-weighted blocks, each
  // worker claiming the next until one hits. `stop` (null inline) is raised
  // by the first hit; hit polls it to cut its own block short. Relaxed
  // ordering suffices: the team barrier publishes the flag, and a stale
  // read only delays the exit.
  template <typename Hit>
  bool anyBlock(std::size_t n, Hit&& hit) {
    if (threadCount() == 1) return hit(std::size_t{0}, n, nullptr);
    const std::vector<std::size_t>& bounds = partition(true, n);
    std::atomic<bool> found{false};
    std::atomic<std::size_t> next{0};
    parallel::team().run(threadCount(), [&](std::size_t) {
      for (std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
           b < chunks_.size() && !found.load(std::memory_order_relaxed);
           b = next.fetch_add(1, std::memory_order_relaxed)) {
        if (hit(bounds[b], bounds[b + 1], &found)) {
          found.store(true, std::memory_order_relaxed);
        }
      }
    });
    return found.load(std::memory_order_relaxed);
  }

  // True if no vertex in [begin, end) outside `frozen` has an enabled rule
  // — or once another block has raised `stop`, polled every 32 vertices.
  bool rangeStable(const std::vector<State>& states,
                   std::span<const std::uint8_t> frozen, std::uint64_t key,
                   std::size_t begin, std::size_t end,
                   const std::atomic<bool>* stop) const {
    std::vector<NeighborRef<State>> buffer;
    for (std::size_t i = begin; i < end; ++i) {
      if (stop != nullptr && ((i - begin) & 31U) == 0 &&
          stop->load(std::memory_order_relaxed)) {
        return true;
      }
      if (!frozen.empty() && frozen[i] != 0) continue;
      const auto v = static_cast<graph::Vertex>(i);
      if (!protocol_->isStable(buildView(*g_, *ids_, v, states, key, buffer))) {
        return false;
      }
    }
    return true;
  }

  // Load imbalance of the last team round: slowest worker chunk over the
  // mean chunk time (1.0 = perfectly balanced). 0 until a timed round ran.
  [[nodiscard]] double imbalanceRatio() const {
    double sum = 0.0;
    double worst = 0.0;
    for (const double seconds : workerSeconds_) {
      sum += seconds;
      worst = std::max(worst, seconds);
    }
    if (sum <= 0.0) return 0.0;
    return worst / (sum / static_cast<double>(workerSeconds_.size()));
  }

  // Shared round epilogue: telemetry, round event, round counter.
  std::size_t finishRound(std::size_t moves, std::size_t evaluated,
                          std::size_t n) {
    if (metrics_.rounds != nullptr) metrics_.rounds->inc();
    if (metrics_.moves != nullptr) metrics_.moves->inc(moves);
    if (metrics_.workerImbalance != nullptr) {
      metrics_.workerImbalance->set(imbalanceRatio());
    }
    recordActivation(metrics_, evaluated, n);
    recordEvaluationRate(metrics_);
    // The same record at every thread count: the count depends on the
    // machine (it goes to the worker_threads gauge), the log must not.
    if (events_ != nullptr) {
      events_->emit("round", {{"executor", "sync"},
                              {"round", round_},
                              {"moves", moves},
                              {"active", evaluated},
                              {"kernel", toString(kernel())}});
    }
    ++round_;
    return moves;
  }

  const Protocol<State>* protocol_;
  const graph::Graph* g_;
  const graph::IdAssignment* ids_;
  std::uint64_t runSeed_;
  Schedule schedule_;
  std::size_t round_ = 0;
  std::unique_ptr<FlatKernel<State>> kernel_;  // never null
  bool flat_ = false;
  // Team blocks per worker: enough for a worker that finishes early to
  // take over work, few enough that claiming one stays negligible.
  static constexpr std::size_t kBlocksPerWorker = 16;
  // Per worker: its evaluate time in the last team round (telemetry on).
  std::vector<double> workerSeconds_;
  // One evaluate-phase block's output (the only one at threads = 1).
  // Cache-line aligned: workers append to different queues at once, and
  // neighbouring vector headers on one line would false-share every push.
  struct alignas(64) Chunk {
    MoveList<State> moves;
    std::size_t owner = 0;  // the team index that evaluated it last round
  };
  std::vector<Chunk> chunks_;
  // Work set. marks_ holds one bit per vertex: the closed neighborhoods of
  // the last round's movers and of announced edits, for the next round.
  // marked_ counts its bits (once past sweepLimit, only that it is past).
  // markAll_ puts every vertex in the next round's set; synced_ says the
  // kernel mirror equals the states of the last commit, over the graph at
  // graphVersion_; edited_ says the caller has edited them since in slots
  // it did not name, announced_ lists the slots it named.
  std::vector<std::uint64_t> marks_;
  std::size_t marked_ = 0;
  bool markAll_ = false;
  bool synced_ = false;
  bool edited_ = false;
  std::uint64_t graphVersion_ = 0;
  std::vector<graph::Vertex> work_;     // this round's ascending work list
  std::vector<graph::Vertex> changed_;  // slots the last diff found changed
  std::vector<graph::Vertex> announced_;
  MoveList<State> pushed_;              // announced slots' new states
  std::vector<graph::Vertex> peekList_;  // liveEnabled()'s list batch
  MoveList<State> peekMoves_;
  RunnerMetrics metrics_;
  telemetry::EventLog* events_ = nullptr;
  // Block boundaries (threads > 1 only).
  std::vector<std::size_t> denseBounds_;
  std::uint64_t denseBoundsVersion_ = 0;
  std::vector<std::size_t> listBounds_;
};

/// Convenience: clean start, run to fixpoint.
template <typename State>
RunResult runFromClean(const Protocol<State>& protocol, const graph::Graph& g,
                       const graph::IdAssignment& ids, std::size_t maxRounds,
                       std::vector<State>* finalStates = nullptr,
                       std::uint64_t runSeed = 0) {
  SyncRunner<State> runner(protocol, g, ids, runSeed);
  std::vector<State> states = runner.initialStates();
  const RunResult result = runner.run(states, maxRounds);
  if (finalStates != nullptr) *finalStates = std::move(states);
  return result;
}

}  // namespace selfstab::engine

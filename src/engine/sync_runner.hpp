// The paper's execution model: synchronous rounds.
//
// Section 2 defines a round as "a period of time in which each node in the
// system receives beacon messages from all its neighbors"; a node then
// evaluates its rules on that consistent snapshot and all privileged nodes
// move simultaneously. SyncRunner implements exactly that semantics: one
// snapshot per round, every enabled node moves.
//
// It is the repo's only round executor. Every round goes through a
// FlatKernel (engine/kernel.hpp): a compiled protocol kernel when one is
// installed (setKernel), otherwise the GenericKernel adapter. The Graph is
// the run's one CSR adjacency: the kernel, isFixpoint, the active-set marks
// and the chunk weights all read it directly. The round is
// embarrassingly parallel — every node reads only the snapshot S_t and the
// commit writes each moved node's own slot — so with threads > 1 the
// evaluate phase and the fixpoint sweep are split into degree-weighted
// contiguous blocks (weight deg(v)+1, so power-law hubs spread across
// workers), kBlocksPerWorker per worker of a persistent WorkerPool. Workers
// claim blocks in ascending order as they free up, since a vertex's cost
// also depends on its state and ID (a static split measured workers idle
// for ~40% of the evaluate phase on a 10^6-node SMM run). Each block fills
// its own move queue and the queues are committed in block order, so
// trajectories are bit-identical at every thread count; threads = 1 runs
// inline with no pool, partition pass or atomics. On small n the barrier
// costs more than it saves.
//
// Protocols must be thread-compatible for threads > 1: onRound() and
// isStable() are const and may run concurrently for different vertices.
// Every protocol in core/ is a stateless evaluator.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
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
#include "parallel/worker_pool.hpp"

namespace selfstab::engine {

/// Outcome of a bounded run.
struct RunResult {
  std::size_t rounds = 0;      ///< rounds executed (not counting the final
                               ///< all-quiet verification round)
  std::size_t totalMoves = 0;  ///< sum of per-round move counts
  bool stabilized = false;     ///< reached a global fixpoint within budget

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

template <typename State>
class SyncRunner {
 public:
  /// Observer invoked after every executed round with (roundIndex,
  /// statesBefore, statesAfter, movesThisRound). roundIndex is 0-based: the
  /// transition S_t -> S_{t+1} of the paper reports index t.
  using Observer = std::function<void(std::size_t, const std::vector<State>&,
                                      const std::vector<State>&, std::size_t)>;

  /// `threads` = 0 is treated as 1.
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
    if (workerSeconds_.size() > 1) {
      pool_ = std::make_unique<parallel::WorkerPool>(workerSeconds_.size());
    }
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
  /// Three phases, each timed when telemetry is attached: *snapshot* (the
  /// kernel's sync() from S_t), *evaluate* (run the rules against the
  /// snapshot, chunked across the pool when threads > 1), *commit* (apply
  /// the moves, forming S_{t+1}).
  ///
  /// Dense schedule — a provably quiet round is skipped: when the previous
  /// round evaluated every node of this mirror and committed no move, sync()
  /// reports the mirror unchanged, and Graph::version() is the one that
  /// evaluation saw, every rule would return "no move" again. The round
  /// still counts, with 0 moves and 0 evaluated nodes.
  ///
  /// Active schedule — same round semantics, bit-identical trajectory, but
  /// only *dirty* nodes (closed neighborhood changed in the previous round)
  /// are evaluated, and the snapshot is maintained incrementally instead of
  /// recopied.
  ///
  /// Soundness of both: a rule reads only N[v], so an unchanged closed
  /// neighborhood means an unchanged decision — a disabled node stays
  /// disabled. Protocols whose decisions read more than that
  /// (Protocol::readsBeyondNeighborhood) break the implication, so for them
  /// no dense round is skipped and the active schedule evaluates every node
  /// each round; its incremental snapshot still avoids the O(n) copy.
  std::size_t step(std::vector<State>& states) {
    assert(states.size() == g_->order());
    const telemetry::ScopedTimer roundTimer(metrics_.roundDuration);
    const std::uint64_t key = roundKey(round_);
    const std::size_t n = states.size();
    const bool active = schedule_ == Schedule::Active;
    const bool local = !protocol_->readsBeyondNeighborhood();
    bool mirrorChanged = true;
    {
      const telemetry::ScopedTimer t(metrics_.snapshotDuration);
      if (!active || !scheduleValid_ || seededCount_ != n ||
          graphVersion_ != g_->version()) {
        // Active's only full copy is its (re)seed.
        mirrorChanged = kernel_->sync(states);
        if (active) {
          seededCount_ = n;
          active_.reset(n);
          active_.seedAll();
          graphVersion_ = g_->version();
          scheduleValid_ = true;
        }
      }
    }
    const bool quiet = !active && local && quiet_ && !mirrorChanged &&
                       g_->version() == quietVersion_;
    const bool all = !active || !local;
    const std::span<const graph::Vertex> work =
        all ? std::span<const graph::Vertex>{} : active_.current();
    const std::size_t evaluated = quiet ? 0 : all ? n : work.size();
    {
      const telemetry::ScopedTimer t(metrics_.evaluateDuration);
      if (quiet) {
        for (Chunk& chunk : chunks_) chunk.moves.clear();
      } else {
        evaluate(all, work, evaluated, key);
      }
    }
    std::size_t moves = 0;
    {
      const telemetry::ScopedTimer t(metrics_.commitDuration);
      for (Chunk& chunk : chunks_) {
        moves += chunk.moves.size();
        for (auto& [v, next] : chunk.moves) {
          states[v] = std::move(next);
          if (!active) continue;
          // Keep the snapshot hot; the mover and everyone who can see it
          // re-evaluate next round.
          kernel_->apply(v, states[v]);
          active_.mark(v);
          for (const graph::Vertex w : g_->neighbors(v)) active_.mark(w);
        }
      }
      if (active) active_.advance();
    }
    if (!active) {
      quiet_ = moves == 0;
      quietVersion_ = g_->version();
    }
    return finishRound(moves, evaluated, n);
  }

  /// Tells the runner that states or topology were mutated externally
  /// (fault injection, topology churn) behind its back: the next round
  /// re-snapshots and evaluates every node, exactly like round 0. Topology
  /// edits through the runner's own Graph reference are detected
  /// automatically via Graph::version(), and the Dense schedule's per-round
  /// copy compares as it copies, so it sees state edits too; state-vector
  /// edits are invisible to the Active schedule without this call. Under
  /// Dense it only forbids skipping the next round as quiet (benchmarks use
  /// that to time full sweeps over a converged configuration).
  void invalidateSchedule() noexcept {
    scheduleValid_ = false;
    quiet_ = false;
  }

  [[nodiscard]] Schedule schedule() const noexcept { return schedule_; }

  /// Installs a compiled protocol kernel (core/kernels.hpp) as the
  /// evaluation path for subsequent rounds; nullptr reverts to the generic
  /// adapter. The kernel must mirror this runner's protocol — trajectories
  /// stay bit-identical either way (the KernelDifferential suite enforces
  /// it) — and be built over this runner's own Graph and IdAssignment
  /// objects (else std::invalid_argument): both read the same adjacency.
  /// Safe between rounds; counts as an external mutation for Active-schedule
  /// bookkeeping, and the next dense round is never skipped.
  void setKernel(std::unique_ptr<FlatKernel<State>> kernel) {
    if (kernel != nullptr &&
        (&kernel->graph() != g_ || &kernel->ids() != ids_)) {
      throw std::invalid_argument("setKernel: kernel over another topology");
    }
    flat_ = kernel != nullptr;
    kernel_ = flat_ ? std::move(kernel)
                    : std::make_unique<GenericKernel<State>>(*protocol_, *g_,
                                                             *ids_);
    scheduleValid_ = false;
    quiet_ = false;
  }

  /// Which evaluation path step() is on.
  [[nodiscard]] Kernel kernel() const noexcept {
    return flat_ ? Kernel::Flat : Kernel::Generic;
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
  /// continues.
  RunResult run(std::vector<State>& states, std::size_t maxRounds,
                const Observer& observer = nullptr) {
    RunResult result;
    while (result.rounds < maxRounds) {
      const std::size_t before = round_;
      std::vector<State> prev;
      if (observer) prev = states;
      const std::size_t moves = step(states);
      if (observer) observer(before, prev, states, moves);
      if (moves == 0 && isFixpoint(states)) {
        result.stabilized = true;
        return result;
      }
      ++result.rounds;
      result.totalMoves += moves;
    }
    // Budget exhausted; check whether we happen to sit on a fixpoint.
    result.stabilized = isFixpoint(states);
    return result;
  }

  /// True if no node has an enabled rule in `states` (modulo scheduling —
  /// see Protocol::isStable). Always asks the protocol through LocalViews:
  /// `states` may be any external vector (chaos masking) that no kernel
  /// mirror has seen. With threads > 1 the sweep runs block by block across
  /// the pool with a shared early-exit flag; the verdict is exact either
  /// way.
  [[nodiscard]] bool isFixpoint(const std::vector<State>& states) {
    const std::uint64_t key = roundKey(round_);
    if (pool_ == nullptr) return rangeStable(states, key, 0, states.size());
    const std::vector<std::size_t>& bounds = partition(true, {}, states.size());
    std::atomic<bool> unstable{false};
    std::atomic<std::size_t> next{0};
    pool_->run([&](std::size_t) {
      for (std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
           b < chunks_.size() && !unstable.load(std::memory_order_relaxed);
           b = next.fetch_add(1, std::memory_order_relaxed)) {
        if (!rangeStable(states, key, bounds[b], bounds[b + 1], &unstable)) {
          unstable.store(true, std::memory_order_relaxed);
        }
      }
    });
    return !unstable.load(std::memory_order_relaxed);
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
  // Evaluates this round's work — every vertex, or the sorted dirty list —
  // into the chunks' move queues: inline as one chunk, or on the pool, each
  // worker claiming the next unclaimed block until none is left. Every
  // block is evaluated by exactly one worker into its own queue.
  void evaluate(bool all, std::span<const graph::Vertex> work,
                std::size_t count, std::uint64_t key) {
    if (pool_ == nullptr) {
      evaluateChunk(chunks_[0].moves, all, work, 0, count, key);
      return;
    }
    const std::vector<std::size_t>& bounds = partition(all, work, count);
    std::atomic<std::size_t> next{0};
    pool_->run([&](std::size_t t) {
      const telemetry::ScopedTimer timer(metrics_.workerChunkDuration);
      for (std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
           b < chunks_.size();
           b = next.fetch_add(1, std::memory_order_relaxed)) {
        evaluateChunk(chunks_[b].moves, all, work, bounds[b], bounds[b + 1],
                      key);
      }
      // Own slot only; the main thread reads after the pool barrier.
      workerSeconds_[t] = timer.elapsedSeconds();
    });
  }

  void evaluateChunk(MoveList<State>& out, bool all,
                     std::span<const graph::Vertex> work, std::size_t begin,
                     std::size_t end, std::uint64_t key) const {
    out.clear();
    if (all) {
      kernel_->evaluateRange(static_cast<graph::Vertex>(begin),
                             static_cast<graph::Vertex>(end), key, out);
    } else {
      kernel_->evaluateList(work.subspan(begin, end - begin), key, out);
    }
  }

  // Degree-weighted block boundaries for the pool: block b holds work items
  // [bounds[b], bounds[b+1]). Weighting by deg(v)+1 balances the neighbor
  // scan, not the item count (the worker_imbalance_ratio gauge tracks the
  // effect). The full-range split depends only on (graph version, n), so it
  // is cached across rounds and kernel swaps; dirty lists are split afresh
  // each round.
  const std::vector<std::size_t>& partition(
      bool all, std::span<const graph::Vertex> work, std::size_t count) {
    const std::size_t parts = chunks_.size();
    if (!all) {
      listBounds_ = weightedBoundaries(count, parts, [&](std::size_t i) {
        return static_cast<std::uint64_t>(g_->degree(work[i])) + 1;
      });
      return listBounds_;
    }
    if (denseBounds_.empty() || denseBounds_.back() != count ||
        denseBoundsVersion_ != g_->version()) {
      denseBounds_ = weightedBoundaries(count, parts, [&](std::size_t i) {
        return static_cast<std::uint64_t>(
                   g_->degree(static_cast<graph::Vertex>(i))) +
               1;
      });
      denseBoundsVersion_ = g_->version();
    }
    return denseBounds_;
  }

  // True if no vertex in [begin, end) has an enabled rule — or, on the pool,
  // once another chunk has raised `stop`: it is polled every 32 vertices so
  // one hit ends the whole sweep. Relaxed ordering suffices; the pool
  // barrier publishes the flag, and a stale read only delays the exit.
  bool rangeStable(const std::vector<State>& states, std::uint64_t key,
                   std::size_t begin, std::size_t end,
                   const std::atomic<bool>* stop = nullptr) const {
    std::vector<NeighborRef<State>> buffer;
    for (std::size_t i = begin; i < end; ++i) {
      if (stop != nullptr && ((i - begin) & 31U) == 0 &&
          stop->load(std::memory_order_relaxed)) {
        return true;
      }
      const auto v = static_cast<graph::Vertex>(i);
      if (!protocol_->isStable(buildView(*g_, *ids_, v, states, key, buffer))) {
        return false;
      }
    }
    return true;
  }

  // Load imbalance of the last pooled round: slowest worker chunk over the
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
  // Pool blocks per worker: enough for a worker that finishes early to
  // take over work, few enough that claiming one stays negligible.
  static constexpr std::size_t kBlocksPerWorker = 16;
  // Per worker: its evaluate time in the last pooled round (telemetry on).
  std::vector<double> workerSeconds_;
  // One evaluate-phase block's output (the only one at threads = 1).
  // Cache-line aligned: workers append to different queues at once, and
  // neighbouring vector headers on one line would false-share every push.
  struct alignas(64) Chunk {
    MoveList<State> moves;
  };
  std::vector<Chunk> chunks_;
  ActiveSet active_;
  std::size_t seededCount_ = 0;
  bool scheduleValid_ = false;
  std::uint64_t graphVersion_ = 0;
  // Dense quiet-round skip: the last evaluated dense round committed no
  // move, over the graph at version quietVersion_.
  bool quiet_ = false;
  std::uint64_t quietVersion_ = 0;
  RunnerMetrics metrics_;
  telemetry::EventLog* events_ = nullptr;
  // Pool state (threads > 1 only). The pool is declared last so its
  // destructor joins the workers before anything they touch goes away.
  std::vector<std::size_t> denseBounds_;
  std::uint64_t denseBoundsVersion_ = 0;
  std::vector<std::size_t> listBounds_;
  std::unique_ptr<parallel::WorkerPool> pool_;
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

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
// installed (setKernel), otherwise the GenericKernel adapter. The installed
// kernel owns the run's only CSR topology; the executor keeps just the
// Graph and IdAssignment references and reads the kernel's topology() for
// isFixpoint, the active-set marks and the chunk weights. The round is
// embarrassingly parallel — every node reads only the snapshot S_t and the
// commit writes each moved node's own slot — so with threads > 1 the
// evaluate phase and the fixpoint sweep are split into degree-weighted
// contiguous chunks (weight deg(v)+1, so power-law hubs spread across
// workers) on a persistent WorkerPool. Moves are committed in ascending
// chunk order, so trajectories are bit-identical at every thread count;
// threads = 1 runs inline with no pool, partition pass or atomics. On
// small n the barrier costs more than it saves.
//
// Protocols must be thread-compatible for threads > 1: onRound() and
// isStable() are const and may run concurrently for different vertices.
// Every protocol in core/ is a stateless evaluator.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
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
#include "engine/topology.hpp"
#include "engine/view_builder.hpp"
#include "engine/worker_pool.hpp"
#include "graph/rng.hpp"

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
        chunks_(std::max<std::size_t>(threads, 1)) {
    assert(ids.order() == g.order());
    if (chunks_.size() > 1) {
      pool_ = std::make_unique<WorkerPool>(chunks_.size());
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
    metrics_ = resolveRunnerMetrics(registry, /*workers=*/pool_ != nullptr);
    events_ = events;
  }

  /// Executes one synchronous round in place; returns the number of moves.
  ///
  /// Three phases, each timed when telemetry is attached: *snapshot* (the
  /// kernel's sync() from S_t), *evaluate* (run the rules against the
  /// snapshot, chunked across the pool when threads > 1), *commit* (apply
  /// the moves, forming S_{t+1}).
  ///
  /// Active schedule — same round semantics, bit-identical trajectory, but
  /// only *dirty* nodes (closed neighborhood changed in the previous round)
  /// are evaluated, and the snapshot is maintained incrementally instead of
  /// recopied. Soundness: a rule reads only N[v], so an unchanged closed
  /// neighborhood means an unchanged decision — a clean node that was
  /// disabled stays disabled. Protocols that read roundKey
  /// (Protocol::usesRoundEntropy) break that implication, so for them every
  /// node is evaluated each round; the incremental snapshot still avoids the
  /// O(n) copy.
  std::size_t step(std::vector<State>& states) {
    assert(states.size() == g_->order());
    const telemetry::ScopedTimer roundTimer(metrics_.roundDuration);
    const std::uint64_t key = roundKey(round_);
    const std::size_t n = states.size();
    const bool active = schedule_ == Schedule::Active;
    {
      const telemetry::ScopedTimer t(metrics_.snapshotDuration);
      if (!active || !scheduleValid_ || seededCount_ != n ||
          graphVersion_ != g_->version()) {
        kernel_->sync(states);  // Active's only full copy is its (re)seed
        if (active) {
          seededCount_ = n;
          active_.reset(n);
          active_.seedAll();
          graphVersion_ = g_->version();
          scheduleValid_ = true;
        }
      }
    }
    const bool all = !active || protocol_->usesRoundEntropy();
    const std::span<const graph::Vertex> work =
        all ? std::span<const graph::Vertex>{} : active_.current();
    const std::size_t evaluated = all ? n : work.size();
    {
      const telemetry::ScopedTimer t(metrics_.evaluateDuration);
      const EvalStopwatch stopwatch(metrics_, evaluated);
      evaluate(all, work, evaluated, key);
    }
    std::size_t moves = 0;
    {
      const telemetry::ScopedTimer t(metrics_.commitDuration);
      // Current: this round re-synced, or the graph is unchanged since.
      const CsrTopology& topo = kernel_->topology();
      for (Chunk& chunk : chunks_) {
        moves += chunk.moves.size();
        for (auto& [v, next] : chunk.moves) {
          states[v] = std::move(next);
          if (!active) continue;
          // Keep the snapshot hot; the mover and everyone who can see it
          // re-evaluate next round.
          kernel_->apply(v, states[v]);
          active_.mark(v);
          for (const graph::Vertex w : topo.neighbors(v)) active_.mark(w);
        }
      }
      if (active) active_.advance();
    }
    return finishRound(moves, evaluated, n);
  }

  /// Tells an Active-schedule runner that states or topology were mutated
  /// externally (fault injection, topology churn) behind its back: the next
  /// round re-snapshots and evaluates every node, exactly like round 0.
  /// Harmless no-op under the Dense schedule. Topology edits through the
  /// runner's own Graph reference are detected automatically via
  /// Graph::version(), but state-vector edits are invisible without this.
  void invalidateSchedule() noexcept { scheduleValid_ = false; }

  [[nodiscard]] Schedule schedule() const noexcept { return schedule_; }

  /// Installs a compiled protocol kernel (core/kernels.hpp) as the
  /// evaluation path for subsequent rounds; nullptr reverts to the generic
  /// adapter. The kernel must mirror this runner's protocol — trajectories
  /// stay bit-identical either way (the KernelDifferential suite enforces
  /// it) — and be built over this runner's own Graph and IdAssignment
  /// objects (else std::invalid_argument), as the runner reads its CSR.
  /// Safe between rounds; counts as an external mutation for Active-schedule
  /// bookkeeping.
  void setKernel(std::unique_ptr<FlatKernel<State>> kernel) {
    if (kernel != nullptr && !kernel->topology().mirrors(*g_, *ids_)) {
      throw std::invalid_argument("setKernel: kernel over another topology");
    }
    flat_ = kernel != nullptr;
    kernel_ = flat_ ? std::move(kernel)
                    : std::make_unique<GenericKernel<State>>(*protocol_, *g_,
                                                             *ids_);
    scheduleValid_ = false;
  }

  /// Which evaluation path step() is on.
  [[nodiscard]] Kernel kernel() const noexcept {
    return flat_ ? Kernel::Flat : Kernel::Generic;
  }

  [[nodiscard]] std::size_t threadCount() const noexcept {
    return chunks_.size();
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
  /// mirror has seen. With threads > 1 the sweep is chunked across the pool
  /// with a shared early-exit flag; the verdict is exact either way.
  [[nodiscard]] bool isFixpoint(const std::vector<State>& states) {
    kernel_->topology().refresh();
    const std::uint64_t key = roundKey(round_);
    if (pool_ == nullptr) return rangeStable(states, key, 0, states.size());
    const std::vector<std::size_t>& bounds = partition(true, {}, states.size());
    std::atomic<bool> unstable{false};
    pool_->run([&](std::size_t t) {
      if (!rangeStable(states, key, bounds[t], bounds[t + 1], &unstable)) {
        unstable.store(true, std::memory_order_relaxed);
      }
    });
    return !unstable.load(std::memory_order_relaxed);
  }

  /// Vertices privileged in `states` (diagnostics and daemon baselines).
  [[nodiscard]] std::vector<graph::Vertex> enabledVertices(
      const std::vector<State>& states) {
    CsrTopology& topo = kernel_->topology();
    topo.refresh();
    const std::uint64_t key = roundKey(round_);
    std::vector<NeighborRef<State>> buffer;
    std::vector<graph::Vertex> enabled;
    for (graph::Vertex v = 0; v < states.size(); ++v) {
      if (isEnabled(*protocol_, buildView(topo, v, states, key, buffer))) {
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
  // into the chunks' move queues: inline as one chunk, or one per worker.
  void evaluate(bool all, std::span<const graph::Vertex> work,
                std::size_t count, std::uint64_t key) {
    if (pool_ == nullptr) {
      evaluateChunk(chunks_[0].moves, all, work, 0, count, key);
      return;
    }
    const std::vector<std::size_t>& bounds = partition(all, work, count);
    pool_->run([&](std::size_t t) {
      const telemetry::ScopedTimer timer(metrics_.workerChunkDuration);
      evaluateChunk(chunks_[t].moves, all, work, bounds[t], bounds[t + 1],
                    key);
      // Own slot only; the main thread reads after the pool barrier.
      chunks_[t].seconds = timer.elapsedSeconds();
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

  // Degree-weighted chunk boundaries for the pool: worker t owns work items
  // [bounds[t], bounds[t+1]). Weighting by deg(v)+1 balances the neighbor
  // scan, not the item count (the worker_imbalance_ratio gauge tracks the
  // effect). Degrees come from the kernel's topology, fresh at every call
  // site (after sync() or a refresh()). The full-range split depends only on
  // (graph version, n), so it is cached across rounds and kernel swaps;
  // dirty lists are split afresh each round.
  const std::vector<std::size_t>& partition(
      bool all, std::span<const graph::Vertex> work, std::size_t count) {
    const CsrTopology& topo = kernel_->topology();
    const std::size_t parts = pool_->size();
    if (!all) {
      listBounds_ = weightedBoundaries(count, parts, [&](std::size_t i) {
        return static_cast<std::uint64_t>(topo.degree(work[i])) + 1;
      });
      return listBounds_;
    }
    if (denseBounds_.empty() || denseBounds_.back() != count ||
        denseBoundsVersion_ != g_->version()) {
      denseBounds_ = weightedBoundaries(count, parts, [&](std::size_t i) {
        return static_cast<std::uint64_t>(
                   topo.degree(static_cast<graph::Vertex>(i))) +
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
    const CsrTopology& topo = kernel_->topology();
    std::vector<NeighborRef<State>> buffer;
    for (std::size_t i = begin; i < end; ++i) {
      if (stop != nullptr && ((i - begin) & 31U) == 0 &&
          stop->load(std::memory_order_relaxed)) {
        return true;
      }
      const auto v = static_cast<graph::Vertex>(i);
      if (!protocol_->isStable(buildView(topo, v, states, key, buffer))) {
        return false;
      }
    }
    return true;
  }

  // Times one evaluate phase into the evaluations_per_second gauge; skips
  // the clock entirely when no registry is attached.
  class EvalStopwatch {
   public:
    EvalStopwatch(const RunnerMetrics& metrics, std::size_t evaluated)
        : metrics_(metrics), evaluated_(evaluated) {
      if (metrics_.evaluationsPerSecond != nullptr) {
        start_ = std::chrono::steady_clock::now();
      }
    }
    ~EvalStopwatch() {
      if (metrics_.evaluationsPerSecond != nullptr) {
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start_)
                .count();
        recordEvaluationRate(metrics_, evaluated_, seconds);
      }
    }
    EvalStopwatch(const EvalStopwatch&) = delete;
    EvalStopwatch& operator=(const EvalStopwatch&) = delete;

   private:
    const RunnerMetrics& metrics_;
    std::size_t evaluated_;
    std::chrono::steady_clock::time_point start_;
  };

  // Load imbalance of the last pooled round: slowest worker chunk over the
  // mean chunk time (1.0 = perfectly balanced). 0 until a timed round ran.
  [[nodiscard]] double imbalanceRatio() const {
    double sum = 0.0;
    double worst = 0.0;
    for (const Chunk& chunk : chunks_) {
      sum += chunk.seconds;
      worst = std::max(worst, chunk.seconds);
    }
    if (sum <= 0.0) return 0.0;
    return worst / (sum / static_cast<double>(chunks_.size()));
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
    if (events_ != nullptr && pool_ == nullptr) {
      events_->emit("round", {{"executor", "sync"},
                              {"round", round_},
                              {"moves", moves},
                              {"active", evaluated},
                              {"kernel", toString(kernel())}});
    } else if (events_ != nullptr) {
      events_->emit("round", {{"executor", "parallel"},
                              {"round", round_},
                              {"moves", moves},
                              {"active", evaluated},
                              {"workers", threadCount()},
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
  std::unique_ptr<FlatKernel<State>> kernel_;  // never null; owns the CSR
  bool flat_ = false;
  // One evaluate-phase chunk's output. Cache-line aligned: each worker
  // appends to its own queue, and neighbouring vector headers on one line
  // would false-share on every push.
  struct alignas(64) Chunk {
    MoveList<State> moves;
    double seconds = 0.0;  // last timed chunk (threads > 1, telemetry on)
  };
  std::vector<Chunk> chunks_;
  ActiveSet active_;
  std::size_t seededCount_ = 0;
  bool scheduleValid_ = false;
  std::uint64_t graphVersion_ = 0;
  RunnerMetrics metrics_;
  telemetry::EventLog* events_ = nullptr;
  // Pool state (threads > 1 only). The pool is declared last so its
  // destructor joins the workers before anything they touch goes away.
  std::vector<std::size_t> denseBounds_;
  std::uint64_t denseBoundsVersion_ = 0;
  std::vector<std::size_t> listBounds_;
  std::unique_ptr<WorkerPool> pool_;
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

// Telemetry hookup for the synchronous round executor (SyncRunner).
//
// The runner resolves registry names once at attach time and keeps raw
// pointers, so the per-round cost of enabled telemetry is atomic adds and
// clock reads — and the cost of *disabled* telemetry is a null-pointer test
// per instrument (ScopedTimer skips the clock entirely on a null sink).
// Attaching is optional and never changes trajectories: telemetry observes
// the execution, it does not participate in it.
#pragma once

#include <cstddef>

#include "telemetry/telemetry.hpp"

namespace selfstab::engine {

/// Resolved metric endpoints; all null when telemetry is disabled.
struct RunnerMetrics {
  telemetry::Counter* rounds = nullptr;
  telemetry::Counter* moves = nullptr;
  telemetry::Histogram* roundDuration = nullptr;
  telemetry::Histogram* snapshotDuration = nullptr;
  telemetry::Histogram* evaluateDuration = nullptr;
  telemetry::Histogram* commitDuration = nullptr;
  telemetry::Histogram* workerChunkDuration = nullptr;  // threads > 1 only
  telemetry::Gauge* workerImbalance = nullptr;          // threads > 1 only
  telemetry::Gauge* workerThreads = nullptr;
  telemetry::Gauge* evaluationsPerSecond = nullptr;
  telemetry::Counter* activeNodes = nullptr;
  telemetry::Counter* skippedNodes = nullptr;
  telemetry::Histogram* activationFraction = nullptr;
};

/// `threads` sets the worker_threads gauge; above 1 it adds the team
/// instruments: one chunk-duration observation per worker per round plus a
/// max/mean imbalance gauge. The snapshot/evaluate/commit phases exist at
/// every thread count.
[[nodiscard]] inline RunnerMetrics resolveRunnerMetrics(
    telemetry::Registry* registry, std::size_t threads) {
  RunnerMetrics m;
  if (registry == nullptr) return m;
  namespace names = telemetry::names;
  m.rounds = &registry->counter(names::kRoundsTotal);
  m.moves = &registry->counter(names::kMovesTotal);
  m.roundDuration = &registry->histogram(names::kRoundDuration,
                                         telemetry::durationBuckets());
  m.snapshotDuration = &registry->histogram(names::kSnapshotDuration,
                                            telemetry::durationBuckets());
  m.evaluateDuration = &registry->histogram(names::kEvaluateDuration,
                                            telemetry::durationBuckets());
  m.commitDuration = &registry->histogram(names::kCommitDuration,
                                          telemetry::durationBuckets());
  m.workerThreads = &registry->gauge(names::kWorkerThreads);
  m.workerThreads->set(static_cast<double>(threads));
  if (threads > 1) {
    m.workerChunkDuration = &registry->histogram(
        names::kWorkerChunkDuration, telemetry::durationBuckets());
    m.workerImbalance = &registry->gauge(names::kWorkerImbalance);
  }
  m.evaluationsPerSecond = &registry->gauge(names::kEvaluationsPerSecond);
  m.activeNodes = &registry->counter(names::kActiveNodes);
  m.skippedNodes = &registry->counter(names::kSkippedNodes);
  m.activationFraction = &registry->histogram(names::kActivationFraction,
                                              telemetry::fractionBuckets());
  return m;
}

/// Records one round's activation: `evaluated` of `n` nodes had their rules
/// run (dense rounds report n of n). No-op when telemetry is disabled.
inline void recordActivation(const RunnerMetrics& m, std::size_t evaluated,
                             std::size_t n) {
  if (m.activeNodes != nullptr) m.activeNodes->inc(evaluated);
  if (m.skippedNodes != nullptr) m.skippedNodes->inc(n - evaluated);
  if (m.activationFraction != nullptr && n > 0) {
    m.activationFraction->observe(static_cast<double>(evaluated) /
                                  static_cast<double>(n));
  }
}

/// Sets the evaluations-per-second gauge to the whole run's rate so far:
/// active_nodes_total over the evaluate-duration histogram's sum. Call it
/// after recordActivation. Wall-clock-derived, so it goes to metrics only —
/// round *events* must stay byte-reproducible. No-op when telemetry is
/// disabled or no evaluate time was recorded yet.
inline void recordEvaluationRate(const RunnerMetrics& m) {
  if (m.evaluationsPerSecond == nullptr) return;
  const double seconds = m.evaluateDuration->sum();
  if (seconds > 0.0) {
    m.evaluationsPerSecond->set(static_cast<double>(m.activeNodes->value()) /
                                seconds);
  }
}

}  // namespace selfstab::engine

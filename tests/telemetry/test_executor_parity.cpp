// Telemetry must be purely observational. The executor at threads >= 2 with
// telemetry attached must produce bit-identical trajectories to threads = 1,
// and both must report identical rounds_total/moves_total.
#include <gtest/gtest.h>

#include <sstream>

#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"
#include "telemetry/telemetry.hpp"

namespace selfstab::engine {
namespace {

using core::PointerState;
using graph::Graph;
using graph::IdAssignment;
namespace names = telemetry::names;

TEST(ExecutorParity, ParallelWithTelemetryMatchesSerialBitForBit) {
  graph::Rng rng(701);
  const Graph g = graph::connectedErdosRenyi(72, 0.09, rng);
  const auto ids = IdAssignment::identity(72);
  const core::SmmProtocol smm = core::smmPaper();

  auto serialStates = engine::randomConfiguration<PointerState>(
      g, rng, core::randomPointerState);
  auto parallelStates = serialStates;

  telemetry::Registry serialReg;
  telemetry::Registry parallelReg;

  SyncRunner<PointerState> serial(smm, g, ids, /*runSeed=*/13);
  serial.attachTelemetry(&serialReg);
  SyncRunner<PointerState> parallel(smm, g, ids, /*runSeed=*/13,
                                    Schedule::Dense, /*threads=*/4);
  parallel.attachTelemetry(&parallelReg);

  const auto ra = serial.run(serialStates, 300);
  const auto rb = parallel.run(parallelStates, 300);
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(parallelStates, serialStates);

  // Both runners executed the same step() calls, so the counters agree
  // exactly — including the final zero-move verification round.
  EXPECT_EQ(parallelReg.counterValue(names::kRoundsTotal),
            serialReg.counterValue(names::kRoundsTotal));
  EXPECT_EQ(parallelReg.counterValue(names::kMovesTotal),
            serialReg.counterValue(names::kMovesTotal));
  EXPECT_EQ(serialReg.counterValue(names::kMovesTotal), ra.totalMoves);
  EXPECT_GE(serialReg.counterValue(names::kRoundsTotal), ra.rounds);
}

TEST(ExecutorParity, AttachedTelemetryDoesNotPerturbTrajectory) {
  graph::Rng rng(703);
  const Graph g = graph::connectedErdosRenyi(48, 0.12, rng);
  const auto ids = IdAssignment::identity(48);
  const core::SmmProtocol smm = core::smmPaper();
  const auto start = engine::randomConfiguration<PointerState>(
      g, rng, core::randomPointerState);

  auto bare = start;
  SyncRunner<PointerState> plainRunner(smm, g, ids, /*runSeed=*/99);
  const auto plainResult = plainRunner.run(bare, 200);

  auto instrumented = start;
  telemetry::Registry registry;
  std::ostringstream events;
  telemetry::EventLog log(events);
  SyncRunner<PointerState> wiredRunner(smm, g, ids, /*runSeed=*/99);
  wiredRunner.attachTelemetry(&registry, &log);
  const auto wiredResult = wiredRunner.run(instrumented, 200);

  EXPECT_EQ(wiredResult, plainResult);
  EXPECT_EQ(instrumented, bare);
  // One "round" event per executed step (counted rounds + verification).
  EXPECT_EQ(log.lineCount(), registry.counterValue(names::kRoundsTotal));
}

TEST(ExecutorParity, PerPhaseHistogramsArePopulated) {
  graph::Rng rng(705);
  const Graph g = graph::connectedErdosRenyi(40, 0.15, rng);
  const auto ids = IdAssignment::identity(40);
  const core::SmmProtocol smm = core::smmPaper();

  telemetry::Registry serialReg;
  {
    SyncRunner<PointerState> runner(smm, g, ids);
    runner.attachTelemetry(&serialReg);
    auto states = engine::randomConfiguration<PointerState>(
        g, rng, core::randomPointerState);
    runner.run(states, 200);
  }
  const std::uint64_t serialRounds =
      serialReg.counterValue(names::kRoundsTotal);
  ASSERT_GT(serialRounds, 0u);
  for (const char* name : {names::kRoundDuration, names::kSnapshotDuration,
                           names::kEvaluateDuration, names::kCommitDuration}) {
    const telemetry::Histogram* h = serialReg.findHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count(), serialRounds) << name;
  }
  // threads = 1 has no workers to report on.
  EXPECT_EQ(serialReg.findHistogram(names::kWorkerChunkDuration), nullptr);

  telemetry::Registry parallelReg;
  {
    SyncRunner<PointerState> runner(smm, g, ids, 0, Schedule::Sweep,
                                    /*threads=*/3);
    runner.attachTelemetry(&parallelReg);
    auto states = engine::randomConfiguration<PointerState>(
        g, rng, core::randomPointerState);
    runner.run(states, 200);
  }
  const std::uint64_t parallelRounds =
      parallelReg.counterValue(names::kRoundsTotal);
  ASSERT_GT(parallelRounds, 0u);
  const telemetry::Histogram* chunks =
      parallelReg.findHistogram(names::kWorkerChunkDuration);
  ASSERT_NE(chunks, nullptr);
  // A sweep dispatches every worker once per round. (Under Dense, a round
  // whose work list is short runs inline, so how many rounds dispatch
  // depends on the trajectory.)
  EXPECT_EQ(chunks->count(), parallelRounds * 3);
  // The commit phase runs on the calling thread at every thread count.
  const telemetry::Histogram* commit =
      parallelReg.findHistogram(names::kCommitDuration);
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(commit->count(), parallelRounds);
  EXPECT_GE(parallelReg.gaugeValue(names::kWorkerImbalance), 0.0);
}

// The thread count depends on the machine the CLI runs on, so it must not
// reach the event log: the same run logs the same bytes at threads 1, 2 and
// 3, under both schedules. The count is reported as the worker_threads
// gauge instead.
TEST(ExecutorParity, EventLogsAreIdenticalAtEveryThreadCount) {
  graph::Rng rng(707);
  const Graph g = graph::connectedErdosRenyi(90, 0.08, rng);
  const auto ids = IdAssignment::identity(90);
  const core::SmmProtocol smm = core::smmPaper();
  const auto start = engine::randomConfiguration<PointerState>(
      g, rng, core::randomPointerState);

  for (const Schedule schedule : {Schedule::Dense, Schedule::Active}) {
    std::string reference;
    for (const std::size_t threads : {1u, 2u, 3u}) {
      std::ostringstream events;
      telemetry::EventLog log(events);
      telemetry::Registry registry;
      SyncRunner<PointerState> runner(smm, g, ids, 0, schedule, threads);
      runner.attachTelemetry(&registry, &log);
      auto states = start;
      runner.run(states, 300);

      ASSERT_GT(log.lineCount(), 1u);
      EXPECT_EQ(registry.gaugeValue(names::kWorkerThreads),
                static_cast<double>(threads));
      if (threads == 1) {
        reference = events.str();
        EXPECT_EQ(reference.find("\"workers\""), std::string::npos);
      } else {
        EXPECT_EQ(events.str(), reference)
            << "threads=" << threads << " schedule=" << toString(schedule);
      }
    }
  }
}

}  // namespace
}  // namespace selfstab::engine

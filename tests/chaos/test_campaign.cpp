// runEngineCampaign: fault plans over the abstract synchronous executors.
#include "chaos/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "analysis/verifiers.hpp"
#include "chaos/safety.hpp"
#include "core/matching_state.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/sync_runner.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/id_order.hpp"

namespace selfstab::chaos {
namespace {

constexpr std::uint64_t kChaosSeed = 0xC4A05ULL;

graph::Graph testGraph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return graph::connectedRandomGeometric(n, 0.35, rng);
}

struct SmmCampaignOutcome {
  CampaignResult result;
  std::vector<core::PointerState> states;
  std::vector<RecoveryMonitor::Record> records;
};

/// One SMM campaign; recovery budget 2n+1, the paper's stabilization bound.
SmmCampaignOutcome runSmm(const FaultPlan& plan, std::size_t n,
                          std::uint64_t seed,
                          engine::Schedule schedule = engine::Schedule::Dense,
                          std::size_t threads = 1) {
  const core::SmmProtocol protocol = core::smmPaper();
  graph::Graph g = testGraph(n, seed);
  const graph::IdAssignment ids = graph::IdAssignment::identity(n);
  engine::SyncRunner<core::PointerState> runner(protocol, g, ids, seed,
                                                schedule, threads);
  std::vector<core::PointerState> states = runner.initialStates();
  RecoveryMonitor monitor;
  SmmCampaignOutcome out;
  out.result = runEngineCampaign(runner, protocol, g, ids, states, plan,
                                 kChaosSeed, 2 * n + 1,
                                 core::randomPointerState, &monitor,
                                 smmSafetyCheck());
  out.states = std::move(states);
  out.records = monitor.records();
  return out;
}

TEST(EngineCampaign, EmptyPlanDrainsToFixpoint) {
  const auto out = runSmm(FaultPlan{}, 24, 3);
  EXPECT_TRUE(out.result.finalFixpoint);
  EXPECT_TRUE(out.result.recoveredAll);
  EXPECT_TRUE(out.records.empty());
  EXPECT_EQ(out.result.safetyViolations, 0u);
  const graph::Graph g = testGraph(24, 3);
  EXPECT_TRUE(analysis::checkMatchingFixpoint(g, out.states).ok());
}

TEST(EngineCampaign, ChurnRecoversWithinPaperBoundSmm) {
  const std::size_t n = 20;
  const auto out = runSmm(makeCampaign("churn", 11, n), n, 11);
  EXPECT_TRUE(out.result.finalFixpoint);
  EXPECT_TRUE(out.result.recoveredAll);
  EXPECT_FALSE(out.records.empty());
  for (const auto& r : out.records) {
    EXPECT_TRUE(r.recovered) << r.kind << " at round " << r.at;
    EXPECT_LE(r.recoveryRounds, 2 * n + 1) << r.kind;
    EXPECT_LE(r.containmentRadius, n) << r.kind;
  }
  // SMM never breaks a matched edge between two healthy nodes (Manne et
  // al.'s "married nodes stay married"), so the safety counter stays zero.
  EXPECT_EQ(out.result.safetyViolations, 0u);
  const graph::Graph g = testGraph(n, 11);
  EXPECT_TRUE(analysis::checkMatchingFixpoint(g, out.states).ok());
}

TEST(EngineCampaign, CrashStormAndPartitionTemplatesEndAtFixpoint) {
  for (const char* name : {"crash-storm", "rolling-partition"}) {
    for (const std::uint64_t seed : {2ull, 9ull}) {
      const std::size_t n = 16;
      const auto out = runSmm(makeCampaign(name, seed, n), n, seed);
      EXPECT_TRUE(out.result.finalFixpoint) << name << " seed " << seed;
      EXPECT_TRUE(out.result.recoveredAll) << name << " seed " << seed;
      const graph::Graph g = testGraph(n, seed);
      EXPECT_TRUE(analysis::checkMatchingFixpoint(g, out.states).ok())
          << name << " seed " << seed;
    }
  }
}

TEST(EngineCampaign, SisRecoversWithinPaperBound) {
  const std::size_t n = 18;
  const core::SisProtocol protocol;
  graph::Graph g = testGraph(n, 5);
  const graph::IdAssignment ids = graph::IdAssignment::identity(n);
  engine::SyncRunner<core::BitState> runner(protocol, g, ids, 5);
  std::vector<core::BitState> states = runner.initialStates();
  RecoveryMonitor monitor;
  const CampaignResult result = runEngineCampaign(
      runner, protocol, g, ids, states, makeCampaign("churn", 4, n),
      kChaosSeed, n, core::randomBitState, &monitor, sisSafetyCheck());
  EXPECT_TRUE(result.finalFixpoint);
  EXPECT_TRUE(result.recoveredAll);
  for (const auto& r : monitor.records()) {
    EXPECT_LE(r.recoveryRounds, n) << r.kind << " at round " << r.at;
  }
  const graph::Graph base = testGraph(n, 5);
  EXPECT_TRUE(
      analysis::isMaximalIndependentSet(base, analysis::membersOf(states)));
}

TEST(EngineCampaign, DeterministicAcrossRuns) {
  const std::size_t n = 15;
  const FaultPlan plan = makeCampaign("churn", 21, n);
  const auto a = runSmm(plan, n, 21);
  const auto b = runSmm(plan, n, 21);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.result.roundsExecuted, b.result.roundsExecuted);
  EXPECT_EQ(a.result.totalMoves, b.result.totalMoves);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].at, b.records[i].at);
    EXPECT_EQ(a.records[i].kind, b.records[i].kind);
    EXPECT_EQ(a.records[i].injected, b.records[i].injected);
    EXPECT_EQ(a.records[i].recoveryRounds, b.records[i].recoveryRounds);
    EXPECT_EQ(a.records[i].containmentRadius, b.records[i].containmentRadius);
    EXPECT_EQ(a.records[i].recovered, b.records[i].recovered);
  }
}

TEST(EngineCampaign, DenseAndActiveSchedulesAgree) {
  const std::size_t n = 15;
  const FaultPlan plan = makeCampaign("crash-storm", 6, n);
  const auto dense = runSmm(plan, n, 6, engine::Schedule::Dense);
  const auto active = runSmm(plan, n, 6, engine::Schedule::Active);
  EXPECT_EQ(dense.states, active.states);
  EXPECT_EQ(dense.result.roundsExecuted, active.result.roundsExecuted);
  EXPECT_EQ(dense.result.totalMoves, active.result.totalMoves);
}

TEST(EngineCampaign, SerialAndParallelExecutorsAgree) {
  const std::size_t n = 15;
  const FaultPlan plan = makeCampaign("churn", 8, n);
  const auto serial = runSmm(plan, n, 8);
  const std::size_t threads =
      std::max<std::size_t>(2, std::thread::hardware_concurrency() / 2);
  const auto pooled = runSmm(plan, n, 8, engine::Schedule::Dense, threads);

  EXPECT_EQ(pooled.states, serial.states);
  EXPECT_EQ(pooled.result.roundsExecuted, serial.result.roundsExecuted);
  EXPECT_EQ(pooled.result.totalMoves, serial.result.totalMoves);
  EXPECT_EQ(pooled.result.finalFixpoint, serial.result.finalFixpoint);
  ASSERT_EQ(pooled.records.size(), serial.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_EQ(pooled.records[i].recoveryRounds,
              serial.records[i].recoveryRounds);
    EXPECT_EQ(pooled.records[i].containmentRadius,
              serial.records[i].containmentRadius);
  }
}

TEST(EngineCampaign, StuckNodeStatePinnedUntilRelease) {
  // One node is stuck with a corrupted pointer; the rest must route around
  // it (masked stability) and the system still reaches a global fixpoint
  // after release.
  const std::size_t n = 12;
  const core::SmmProtocol protocol = core::smmPaper();
  graph::Graph g = testGraph(n, 13);
  const graph::IdAssignment ids = graph::IdAssignment::identity(n);
  engine::SyncRunner<core::PointerState> runner(protocol, g, ids, 13);
  std::vector<core::PointerState> states = runner.initialStates();

  // Template-style 2n+8 spacing: each fault gets a full recovery window
  // (an event landing inside the previous window truncates it and the
  // monitor rightly reports recovered=false). Node 0 is frozen first, the
  // corruption lands while it is stuck, and release comes last.
  const std::int64_t gap = static_cast<std::int64_t>(2 * n + 8);
  FaultPlan plan;
  FaultEvent stuck;
  stuck.at = 4;
  stuck.kind = FaultKind::Stuck;
  stuck.node = 0;
  plan.events.push_back(stuck);
  FaultEvent corrupt;
  corrupt.at = 4 + gap;
  corrupt.kind = FaultKind::Corrupt;
  corrupt.fraction = 0.5;
  plan.events.push_back(corrupt);
  FaultEvent release;
  release.at = 4 + 2 * gap;
  release.kind = FaultKind::Release;
  release.node = 0;
  plan.events.push_back(release);

  RecoveryMonitor monitor;
  const CampaignResult result = runEngineCampaign(
      runner, protocol, g, ids, states, plan, kChaosSeed, std::size_t{0},
      core::randomPointerState, &monitor, smmSafetyCheck());
  EXPECT_TRUE(result.finalFixpoint);
  EXPECT_TRUE(result.recoveredAll);
  const graph::Graph base = testGraph(n, 13);
  EXPECT_TRUE(analysis::checkMatchingFixpoint(base, states).ok());
}

TEST(EngineCampaign, RestoresCallerGraphTopologyAfterCleanPlan) {
  // Crash/rejoin and partition/heal must leave the shared Graph equal to
  // the base topology once the plan has played out.
  const std::size_t n = 14;
  graph::Graph g = testGraph(n, 17);
  const graph::Graph base = g;
  const core::SmmProtocol protocol = core::smmPaper();
  const graph::IdAssignment ids = graph::IdAssignment::identity(n);
  engine::SyncRunner<core::PointerState> runner(protocol, g, ids, 17);
  std::vector<core::PointerState> states = runner.initialStates();
  const CampaignResult result = runEngineCampaign(
      runner, protocol, g, ids, states, makeCampaign("rolling-partition", 1, n),
      kChaosSeed, std::size_t{0}, core::randomPointerState);
  EXPECT_TRUE(result.finalFixpoint);
  EXPECT_EQ(g.edges(), base.edges());
}

// The monitor grows its containment BFS lazily, one layer per unlabelled
// node it meets. Its radii must equal an eager multi-source BFS: the
// distance from the nearest injected node, n for nodes no injected node
// reaches, and 0 for every node when nothing was injected.
TEST(RecoveryMonitor, LazyContainmentMatchesEagerBfs) {
  Rng rng(31);
  const graph::Graph udg = graph::connectedRandomGeometric(50, 0.2, rng);
  graph::Graph g(60);  // the udg plus a separate 10-node path
  for (const auto& e : udg.edges()) g.addEdge(e.u, e.v);
  for (graph::Vertex v = 50; v + 1 < 60; ++v) g.addEdge(v, v + 1);
  const std::size_t n = g.order();

  const auto eager = [&](const std::vector<graph::Vertex>& injected,
                         const std::vector<graph::Vertex>& changed) {
    std::size_t worst = 0;
    for (const graph::Vertex v : changed) {
      std::size_t d = injected.empty() ? 0 : n;
      for (const graph::Vertex s : injected) {
        const std::size_t ds = graph::bfsDistances(g, s)[v];
        if (ds != graph::kUnreachable) d = std::min(d, ds);
      }
      worst = std::max(worst, d);
    }
    return worst;
  };

  RecoveryMonitor monitor;
  std::vector<std::size_t> expected;
  const auto window = [&](const std::vector<graph::Vertex>& injected,
                          const std::vector<graph::Vertex>& changed) {
    monitor.onFault(static_cast<std::int64_t>(expected.size()),
                    FaultKind::Corrupt, injected, g);
    for (const graph::Vertex v : changed) monitor.onStateChanged(v);
    monitor.onRecovered(1, true);
    expected.push_back(eager(injected, changed));
  };
  window({3}, {3, 4, 40, 12});
  window({3}, {});                          // nothing changed: radius 0
  window({7, 7, 22}, {49, 0, 7, 22, 1});    // duplicate epicenter
  window({55}, {59, 50, 51});               // inside the path component
  window({2}, {1, 57});                     // 57 unreachable: radius n
  window({}, {5, 58});                      // no epicenter: radius 0
  window({10, 52}, {58, 33, 10});           // one epicenter per component
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<graph::Vertex> injected;
    std::vector<graph::Vertex> changed;
    for (std::uint64_t k = rng.below(4); k > 0; --k) {
      injected.push_back(static_cast<graph::Vertex>(rng.below(n)));
    }
    for (std::uint64_t k = rng.below(12); k > 0; --k) {
      changed.push_back(static_cast<graph::Vertex>(rng.below(n)));
    }
    window(injected, changed);
  }
  ASSERT_EQ(monitor.records().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(monitor.records()[i].containmentRadius, expected[i])
        << "window " << i;
  }
  EXPECT_EQ(monitor.records()[1].containmentRadius, 0u);
  EXPECT_EQ(monitor.records()[4].containmentRadius, n);
  EXPECT_EQ(monitor.records()[5].containmentRadius, 0u);
}

}  // namespace
}  // namespace selfstab::chaos

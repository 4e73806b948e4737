// runEngineCampaign: fault plans over the abstract synchronous executors.
#include "chaos/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/verifiers.hpp"
#include "chaos/safety.hpp"
#include "core/kernels.hpp"
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

// A plan that crashes a node and cuts the graph in two, and never rejoins
// or heals, leaves the runner's topology masked when it ends; the caller's
// graph must still come back with its original edges.
FaultPlan crashAndCutPlan(std::size_t n) {
  FaultPlan plan;
  FaultEvent crash;
  crash.at = 3;
  crash.kind = FaultKind::Crash;
  crash.node = 2;
  plan.events.push_back(crash);
  FaultEvent cut;
  cut.at = 9;
  cut.kind = FaultKind::PartitionCut;
  for (graph::Vertex v = 0; v < n / 2; ++v) cut.nodes.push_back(v);
  plan.events.push_back(cut);
  FaultEvent corrupt;
  corrupt.at = 15;
  corrupt.kind = FaultKind::Corrupt;
  corrupt.fraction = 0.5;
  plan.events.push_back(corrupt);
  return plan;
}

TEST(EngineCampaign, RestoresCallerGraphAfterUnhealedCrashAndCut) {
  const std::size_t n = 30;
  graph::Graph g = testGraph(n, 23);
  const graph::Graph base = g;
  const core::SmmProtocol protocol = core::smmPaper();
  const graph::IdAssignment ids = graph::IdAssignment::identity(n);
  engine::SyncRunner<core::PointerState> runner(protocol, g, ids, 23);
  std::vector<core::PointerState> states = runner.initialStates();
  std::size_t cutEdges = 0;
  const CampaignResult result = runEngineCampaign(
      runner, protocol, g, ids, states, crashAndCutPlan(n), kChaosSeed,
      std::size_t{0},
      [&](graph::Vertex v, const graph::Graph& topo, Rng& rng) {
        // The corruption lands while node 2 is isolated and the cut holds.
        cutEdges = base.size() - topo.size();
        return core::randomPointerState(v, topo, rng);
      });
  EXPECT_GT(cutEdges, base.degree(2));
  EXPECT_TRUE(result.finalFixpoint);  // masked: node 2 stays crashed
  EXPECT_EQ(g.edges(), base.edges());
}

TEST(EngineCampaign, RestoresCallerGraphWhenTheCampaignThrows) {
  const std::size_t n = 30;
  graph::Graph g = testGraph(n, 29);
  const graph::Graph base = g;
  const core::SmmProtocol protocol = core::smmPaper();
  const graph::IdAssignment ids = graph::IdAssignment::identity(n);
  engine::SyncRunner<core::PointerState> runner(protocol, g, ids, 29,
                                                engine::Schedule::Dense, 2);
  runner.setKernel(core::makeFlatKernel<core::PointerState>(protocol, g, ids));
  std::vector<core::PointerState> states = runner.initialStates();
  bool masked = false;
  EXPECT_THROW(
      (void)runEngineCampaign(
          runner, protocol, g, ids, states, crashAndCutPlan(n), kChaosSeed,
          std::size_t{0},
          [&](graph::Vertex, const graph::Graph& topo,
              Rng&) -> core::PointerState {
            masked = topo.size() < base.size();
            throw std::runtime_error("sampler failed");
          }),
      std::runtime_error);
  EXPECT_TRUE(masked);
  EXPECT_EQ(g.edges(), base.edges());
  // The runner reads the restored graph and still converges on it.
  EXPECT_TRUE(runner.run(states, 2 * n + 1).stabilized);
  EXPECT_TRUE(analysis::checkMatchingFixpoint(g, states).ok());
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

// Multi-source BFS distances from `sources`; n where none reaches.
std::vector<std::size_t> eagerDistances(
    const graph::Graph& g, const std::vector<graph::Vertex>& sources) {
  const std::size_t n = g.order();
  std::vector<std::size_t> dist(n, n);
  std::deque<graph::Vertex> queue;
  for (const graph::Vertex s : sources) {
    if (dist[s] == 0) continue;
    dist[s] = 0;
    queue.push_back(s);
  }
  while (!queue.empty()) {
    const graph::Vertex v = queue.front();
    queue.pop_front();
    for (const graph::Vertex w : g.neighbors(v)) {
      if (dist[w] != n) continue;
      dist[w] = dist[v] + 1;
      queue.push_back(w);
    }
  }
  return dist;
}

// On graphs whose far nodes lie beyond the near search's budget (a 70x70
// grid: ~2d² nodes within distance d), the containment radius must still
// equal the eager BFS: near movers settle in the budgeted search, far ones
// in the layered fallback, and both kinds mix in one window. The graph
// also holds a second component (a 20x20 grid) and two isolated nodes, so
// some movers are unreachable (radius n), and some windows inject nothing.
TEST(RecoveryMonitor, BudgetedSearchMatchesEagerBfsOnLargeGraphs) {
  const graph::Graph big = graph::grid(70, 70);
  const graph::Graph small = graph::grid(20, 20);
  const std::size_t offset = big.order();
  const std::size_t n = big.order() + small.order() + 2;
  std::vector<graph::Edge> edges = big.edges();
  for (const auto& e : small.edges()) {
    edges.push_back({static_cast<graph::Vertex>(e.u + offset),
                     static_cast<graph::Vertex>(e.v + offset)});
  }
  const graph::Graph g = graph::Graph::fromEdges(n, edges);
  const auto isolated = static_cast<graph::Vertex>(n - 1);
  const auto corner = static_cast<graph::Vertex>(0);
  const auto farCorner = static_cast<graph::Vertex>(big.order() - 1);
  const auto inSmall = static_cast<graph::Vertex>(offset + 5);

  RecoveryMonitor monitor;
  std::vector<std::size_t> expected;
  const auto window = [&](const std::vector<graph::Vertex>& injected,
                          const std::vector<graph::Vertex>& changed) {
    monitor.onFault(static_cast<std::int64_t>(expected.size()),
                    FaultKind::Corrupt, injected, g);
    std::size_t worst = 0;
    const std::vector<std::size_t> dist = eagerDistances(g, injected);
    for (const graph::Vertex v : changed) {
      monitor.onStateChanged(v);
      worst = std::max(worst, injected.empty() ? 0 : dist[v]);
    }
    monitor.onRecovered(1, true);
    expected.push_back(worst);
  };
  // Near movers only: the budgeted search settles every one.
  window({corner}, {1, 70, 71, 141, 3});
  // Far movers only (138 hops), then near ones the fallback BFS has passed.
  window({corner}, {farCorner, farCorner - 1, 1, 140});
  // Near first, then far, then near again.
  window({corner, 35}, {36, farCorner, 2, 4000, 72});
  // An isolated crash: every other mover is unreachable.
  window({isolated}, {isolated, 5, inSmall});
  // Movers in the other component than the epicenter, and in the same.
  window({inSmall}, {inSmall + 1, 100, inSmall + 20});
  // No epicenter: radius 0 however far the movers are.
  window({}, {farCorner, inSmall, isolated});
  // Repeated far movers after the fallback has labelled them.
  window({farCorner}, {corner, corner, 1, corner + 70});
  graph::Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<graph::Vertex> injected;
    std::vector<graph::Vertex> changed;
    for (std::uint64_t k = rng.below(4); k > 0; --k) {
      injected.push_back(static_cast<graph::Vertex>(rng.below(n)));
    }
    for (std::uint64_t k = rng.below(40); k > 0; --k) {
      changed.push_back(static_cast<graph::Vertex>(rng.below(n)));
    }
    window(injected, changed);
  }
  ASSERT_EQ(monitor.records().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(monitor.records()[i].containmentRadius, expected[i])
        << "window " << i;
  }
  EXPECT_EQ(monitor.records()[0].containmentRadius, 3u);
  EXPECT_EQ(monitor.records()[1].containmentRadius, 138u);
  EXPECT_EQ(monitor.records()[3].containmentRadius, n);
  EXPECT_EQ(monitor.records()[4].containmentRadius, n);
  EXPECT_EQ(monitor.records()[5].containmentRadius, 0u);
}

}  // namespace
}  // namespace selfstab::chaos

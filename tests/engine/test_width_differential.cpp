// Width differential: a Graph stores its slices narrow (2-byte deltas
// w − v) when every edge fits and wide (4-byte targets) otherwise, and no
// reader may tell the two apart. Each case runs one space-ordered unit-disk
// graph as built (narrow) and through graph::detail::widened (the same
// graph, wide) and compares, byte for byte: the flat SMM and SIS kernels
// against the generic path at one and four workers, round by round with
// their event logs (which carry each round's work-set size), the
// verifiers, the writers, and a crash/rejoin/partition campaign.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/verifiers.hpp"
#include "chaos/campaign.hpp"
#include "chaos/monitors.hpp"
#include "chaos/plan.hpp"
#include "chaos/safety.hpp"
#include "cli/run.hpp"
#include "core/kernels.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/geometry.hpp"
#include "graph/io.hpp"
#include "telemetry/telemetry.hpp"

namespace selfstab {
namespace {

using graph::Graph;
using graph::IdAssignment;
using graph::Vertex;

// n points in the unit square (4000 by default), stored in space order
// (labelled), about 15 neighbours each.
Graph spaceGraph(std::uint64_t seed, std::size_t n = 4000) {
  graph::Rng rng(seed);
  return graph::unitDiskGraph(graph::randomPoints(n, rng),
                              std::sqrt(5.0 / static_cast<double>(n)),
                              graph::VertexOrder::Space);
}

// Every state after every round, the event log and the result of one run
// from `start` on (g, ids), at most `budget` rounds.
struct Trajectory {
  std::vector<std::string> rounds;
  std::string events;
  std::size_t roundsRun = 0;
  bool stabilized = false;
};

template <typename State>
std::string render(const std::vector<State>& states) {
  std::ostringstream out;
  for (const State& s : states) {
    if constexpr (std::is_same_v<State, core::PointerState>) {
      out << s.ptr << ',';
    } else {
      out << s.in << ',';
    }
  }
  return out.str();
}

template <typename State>
Trajectory runWith(const engine::Protocol<State>& protocol, const Graph& g,
                   const IdAssignment& ids, std::vector<State> states,
                   std::size_t budget, bool flat, std::size_t threads) {
  std::ostringstream log;
  telemetry::EventLog events(log);
  engine::SyncRunner<State> runner(protocol, g, ids, 1,
                                   engine::Schedule::Dense, threads);
  runner.attachTelemetry(nullptr, &events);
  if (flat) runner.setKernel(core::makeFlatKernel<State>(protocol, g, ids));
  Trajectory t;
  const engine::RunResult result = runner.run(
      states, budget,
      [&](std::size_t, const std::vector<State>&,
          const std::vector<State>& after,
          std::size_t) { t.rounds.push_back(render(after)); });
  t.events = log.str();
  t.roundsRun = result.rounds;
  t.stabilized = result.stabilized;
  return t;
}

// Both widths x {generic, flat} x {1, 4} workers run the narrow generic
// run's trajectory; runs on one kernel also log the same events (the log
// names the kernel).
template <typename State, typename Sampler>
void expectWidthInvisible(const engine::Protocol<State>& protocol,
                          Sampler sampler, std::size_t budget,
                          const char* what) {
  const Graph narrow = spaceGraph(7);
  ASSERT_TRUE(narrow.narrow());
  const Graph wide = graph::detail::widened(narrow);
  ASSERT_FALSE(wide.narrow());
  const IdAssignment ids = [&] {
    graph::Rng rng(3);
    return IdAssignment::randomPermutation(narrow.order(), rng);
  }();
  graph::Rng rng(11);
  const std::vector<State> start =
      engine::randomConfiguration<State>(narrow, rng, sampler);
  const Trajectory reference =
      runWith(protocol, narrow, ids, start, budget, false, 1);
  const Trajectory flatReference =
      runWith(protocol, narrow, ids, start, budget, true, 1);
  ASSERT_GT(reference.rounds.size(), 2U) << what;
  for (const Graph* g : {&narrow, &wide}) {
    for (const bool flat : {false, true}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const Trajectory t =
            runWith(protocol, *g, ids, start, budget, flat, threads);
        const std::string where =
            std::string(what) + (g->narrow() ? " narrow" : " wide") +
            (flat ? " flat" : " generic") + " threads " +
            std::to_string(threads);
        EXPECT_TRUE(t.rounds == reference.rounds) << where;
        EXPECT_EQ(t.roundsRun, reference.roundsRun) << where;
        EXPECT_EQ(t.stabilized, reference.stabilized) << where;
        EXPECT_EQ(t.events, (flat ? flatReference : reference).events)
            << where;
      }
    }
  }
}

TEST(WidthDifferential, SmmKernelsMatchGenericAtBothWidths) {
  expectWidthInvisible(core::smmPaper(), core::RandomPointer{}, 400, "smm");
  // Successor reads v + 1's slot (successorSlot), Random walks the slice
  // once more: each reads its slice its own way. The arbitrary choice may
  // livelock, so its runs stop at the budget.
  expectWidthInvisible(core::smmArbitrary(core::Choice::Successor),
                       core::RandomPointer{}, 60, "smm successor");
  expectWidthInvisible(
      core::SmmProtocol(core::Choice::Random, core::Choice::MaxId),
      core::RandomPointer{}, 400, "smm random/max");
}

TEST(WidthDifferential, SisKernelMatchesGenericAtBothWidths) {
  expectWidthInvisible(core::SisProtocol(), core::randomBitState, 400,
                       "sis");
}

TEST(WidthDifferential, VerifiersMatch) {
  const Graph narrow = spaceGraph(9);
  const Graph wide = graph::detail::widened(narrow);
  graph::Rng rng(5);
  for (int trial = 0; trial < 4; ++trial) {
    const auto pointers = engine::randomConfiguration<core::PointerState>(
        narrow, rng, core::RandomPointer{});
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      const auto a =
          analysis::detail::checkMatchingFixpoint(narrow, pointers, workers);
      const auto b =
          analysis::detail::checkMatchingFixpoint(wide, pointers, workers);
      EXPECT_EQ(a.ok(), b.ok());
      EXPECT_EQ(a.typeCorrect, b.typeCorrect);
      EXPECT_EQ(a.isMatching, b.isMatching);
      EXPECT_EQ(a.isMaximal, b.isMaximal);
      EXPECT_EQ(a.matchedPairs, b.matchedPairs);
    }
    EXPECT_EQ(analysis::matchedEdges(narrow, pointers),
              analysis::matchedEdges(wide, pointers));
    const auto bits = engine::randomConfiguration<core::BitState>(
        narrow, rng, core::randomBitState);
    const auto members = analysis::membersOf(bits);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      EXPECT_EQ(
          analysis::detail::isMaximalIndependentSet(narrow, members, workers),
          analysis::detail::isMaximalIndependentSet(wide, members, workers));
    }
    EXPECT_EQ(analysis::isIndependentSet(narrow, members),
              analysis::isIndependentSet(wide, members));
    EXPECT_EQ(analysis::isDominatingSet(narrow, members),
              analysis::isDominatingSet(wide, members));
  }
}

TEST(WidthDifferential, WritersMatch) {
  const Graph narrow = spaceGraph(13);
  const Graph wide = graph::detail::widened(narrow);
  const auto write = [](const Graph& g) {
    std::ostringstream edges;
    graph::writeEdgeList(edges, g);
    std::ostringstream dot;
    std::vector<std::string> vertexAttrs(g.order());
    vertexAttrs[5] = "color=red";
    const Vertex w = g.neighbors(5).front();
    cli::writeAnnotatedDot(dot, g, vertexAttrs,
                           {{graph::makeEdge(5, w), "penwidth=3"}});
    return edges.str() + dot.str();
  };
  EXPECT_EQ(write(narrow), write(wide));
}

// A plan with every topology event: crash, rejoin, partition cut and heal,
// with corruption between them.
chaos::FaultPlan topologyPlan(const Graph& g) {
  chaos::FaultPlan plan;
  const auto add = [&](std::int64_t at, chaos::FaultKind kind) {
    chaos::FaultEvent e;
    e.at = at;
    e.kind = kind;
    plan.events.push_back(e);
    return &plan.events.back();
  };
  add(8, chaos::FaultKind::Corrupt)->fraction = 0.05;
  add(30, chaos::FaultKind::Crash)->node = 17;
  add(60, chaos::FaultKind::Crash)->node = 610;
  add(90, chaos::FaultKind::Rejoin)->node = 17;
  chaos::FaultEvent* cut = add(120, chaos::FaultKind::PartitionCut);
  for (Vertex v = 0; v < g.order() / 2; ++v) cut->nodes.push_back(v);
  add(150, chaos::FaultKind::PartitionHeal);
  add(180, chaos::FaultKind::Rejoin)->node = 610;
  add(210, chaos::FaultKind::Corrupt)->fraction = 0.05;
  return plan;
}

struct CampaignOutcome {
  chaos::CampaignResult result;
  std::vector<core::PointerState> states;
  std::string events;
  bool narrowAfter = false;
};

CampaignOutcome runCampaign(Graph g, std::size_t threads) {
  const core::SmmProtocol protocol = core::smmPaper();
  const IdAssignment ids = IdAssignment::identity(g.order());
  const Graph base = g;
  std::ostringstream log;
  telemetry::EventLog events(log);
  engine::SyncRunner<core::PointerState> runner(
      protocol, g, ids, 1, engine::Schedule::Dense, threads);
  runner.attachTelemetry(nullptr, &events);
  runner.setKernel(
      core::makeFlatKernel<core::PointerState>(protocol, g, ids));
  chaos::RecoveryMonitor monitor;
  monitor.attachTelemetry(nullptr, &events);
  std::vector<core::PointerState> states = runner.initialStates();
  CampaignOutcome out;
  out.result = chaos::runEngineCampaign(
      runner, protocol, g, ids, states, topologyPlan(g), 0xC4A05ULL, 300,
      core::RandomPointer{}, &monitor, chaos::smmSafetyCheck());
  EXPECT_TRUE(g == base);
  out.states = std::move(states);
  out.events = log.str();
  out.narrowAfter = g.narrow();
  return out;
}

// The campaign filters the base's slices at its width: a narrow base stays
// narrow through every reshape, and a wide copy of it runs the same
// campaign to the same end.
TEST(WidthDifferential, CampaignOnNarrowBase) {
  const Graph narrow = spaceGraph(17, 1000);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const CampaignOutcome a = runCampaign(narrow, threads);
    const CampaignOutcome b =
        runCampaign(graph::detail::widened(narrow), threads);
    EXPECT_TRUE(a.narrowAfter);
    EXPECT_FALSE(b.narrowAfter);
    EXPECT_TRUE(a.result.finalFixpoint);
    EXPECT_EQ(a.result.recoveredAll, b.result.recoveredAll);
    EXPECT_EQ(a.result.roundsExecuted, b.result.roundsExecuted);
    EXPECT_EQ(a.result.totalMoves, b.result.totalMoves);
    EXPECT_EQ(a.result.safetyViolations, b.result.safetyViolations);
    EXPECT_EQ(render(a.states), render(b.states));
    EXPECT_EQ(a.events, b.events);
    EXPECT_NE(a.events.find("partition_cut"), std::string::npos);
  }
}

}  // namespace
}  // namespace selfstab

#include "engine/sync_runner.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "../support/test_protocols.hpp"
#include "analysis/verifiers.hpp"
#include "core/aggregation.hpp"
#include "core/kernels.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "telemetry/telemetry.hpp"

namespace selfstab::engine {
namespace {

using graph::Graph;
using graph::IdAssignment;
using testing::BlinkerProtocol;
using testing::CounterProtocol;
using testing::MaxProtocol;
using testing::ValueState;

TEST(SyncRunner, InitialStatesComeFromProtocol) {
  const Graph g = graph::path(4);
  const auto ids = IdAssignment::identity(4);
  MaxProtocol protocol;
  SyncRunner<ValueState> runner(protocol, g, ids);
  const auto states = runner.initialStates();
  ASSERT_EQ(states.size(), 4u);
  for (graph::Vertex v = 0; v < 4; ++v) EXPECT_EQ(states[v].value, v);
}

TEST(SyncRunner, StepMovesAllEnabledSimultaneously) {
  const Graph g = graph::path(3);  // values 0-1-2
  const auto ids = IdAssignment::identity(3);
  MaxProtocol protocol;
  SyncRunner<ValueState> runner(protocol, g, ids);
  auto states = runner.initialStates();
  // Round 1: node 0 takes 1 (its neighbor's old value), node 1 takes 2.
  EXPECT_EQ(runner.step(states), 2u);
  EXPECT_EQ(states[0].value, 1u);  // snapshot semantics: not 2
  EXPECT_EQ(states[1].value, 2u);
  EXPECT_EQ(states[2].value, 2u);
}

TEST(SyncRunner, MaxConvergesWithinDiameterRounds) {
  graph::Rng rng(1);
  const Graph g = graph::connectedErdosRenyi(30, 0.1, rng);
  const auto ids = IdAssignment::identity(30);
  MaxProtocol protocol;
  SyncRunner<ValueState> runner(protocol, g, ids);
  auto states = runner.initialStates();
  const RunResult result = runner.run(states, 100);
  EXPECT_TRUE(result.stabilized);
  EXPECT_LE(result.rounds, graph::diameter(g));
  for (const ValueState& s : states) EXPECT_EQ(s.value, 29u);
}

TEST(SyncRunner, FixpointDetectedImmediately) {
  const Graph g = graph::path(5);
  const auto ids = IdAssignment::identity(5);
  MaxProtocol protocol;
  SyncRunner<ValueState> runner(protocol, g, ids);
  std::vector<ValueState> states(5, ValueState{7});  // already uniform
  EXPECT_TRUE(runner.isFixpoint(states));
  const RunResult result = runner.run(states, 100);
  EXPECT_TRUE(result.stabilized);
  EXPECT_EQ(result.rounds, 0u);
  EXPECT_EQ(result.totalMoves, 0u);
}

TEST(SyncRunner, BudgetExhaustionReported) {
  const Graph g = graph::path(2);
  const auto ids = IdAssignment::identity(2);
  BlinkerProtocol protocol;
  SyncRunner<ValueState> runner(protocol, g, ids);
  std::vector<ValueState> states(2, ValueState{0});
  const RunResult result = runner.run(states, 10);
  EXPECT_FALSE(result.stabilized);
  EXPECT_EQ(result.rounds, 10u);
  EXPECT_EQ(result.totalMoves, 20u);
}

TEST(SyncRunner, ObserverSeesEveryRound) {
  const Graph g = graph::path(4);
  const auto ids = IdAssignment::identity(4);
  MaxProtocol protocol;
  SyncRunner<ValueState> runner(protocol, g, ids);
  auto states = runner.initialStates();
  std::size_t calls = 0;
  std::size_t observedMoves = 0;
  const RunResult result = runner.run(
      states, 100,
      [&](std::size_t round, const std::vector<ValueState>& before,
          const std::vector<ValueState>& after, std::size_t moves) {
        EXPECT_EQ(round, calls);
        EXPECT_EQ(before.size(), 4u);
        EXPECT_EQ(after.size(), 4u);
        ++calls;
        observedMoves += moves;
      });
  // Observer also sees the final zero-move verification round.
  EXPECT_EQ(calls, result.rounds + 1);
  EXPECT_EQ(observedMoves, result.totalMoves);
}

TEST(SyncRunner, EnabledVerticesMatchesMoves) {
  const Graph g = graph::path(3);
  const auto ids = IdAssignment::identity(3);
  MaxProtocol protocol;
  SyncRunner<ValueState> runner(protocol, g, ids);
  auto states = runner.initialStates();
  const auto enabled = runner.enabledVertices(states);
  const std::vector<graph::Vertex> expected{0, 1};
  EXPECT_EQ(enabled, expected);
}

TEST(SyncRunner, RoundKeysDifferAcrossRoundsAndSeeds) {
  const Graph g = graph::path(2);
  const auto ids = IdAssignment::identity(2);
  MaxProtocol protocol;
  SyncRunner<ValueState> a(protocol, g, ids, 1);
  SyncRunner<ValueState> b(protocol, g, ids, 2);
  EXPECT_NE(a.roundKey(0), a.roundKey(1));
  EXPECT_NE(a.roundKey(0), b.roundKey(0));
}

TEST(RunFromClean, ReturnsFinalStates) {
  const Graph g = graph::cycle(6);
  const auto ids = IdAssignment::identity(6);
  MaxProtocol protocol;
  std::vector<ValueState> finalStates;
  const RunResult result = runFromClean(protocol, g, ids, 100, &finalStates);
  EXPECT_TRUE(result.stabilized);
  ASSERT_EQ(finalStates.size(), 6u);
  for (const ValueState& s : finalStates) EXPECT_EQ(s.value, 5u);
}

// evaluations_per_second is the whole run's rate, not the last round's:
// every evaluation counted in active_nodes_total over the evaluate phases'
// total time, the evaluate-duration histogram's sum.
TEST(SyncRunnerTelemetry, EvaluationRateIsTheWholeRunRate) {
  const core::SmmProtocol smm = core::smmPaper();
  for (const Schedule schedule : {Schedule::Dense, Schedule::Active}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      graph::Rng rng(77);
      const Graph g = graph::connectedRandomGeometric(400, 0.1, rng);
      const auto ids = IdAssignment::randomPermutation(g.order(), rng);
      telemetry::Registry registry;
      SyncRunner<core::PointerState> runner(smm, g, ids, 3, schedule,
                                            threads);
      runner.attachTelemetry(&registry);
      runner.setKernel(core::makeFlatKernel<core::PointerState>(smm, g, ids));
      auto states = randomConfiguration<core::PointerState>(
          g, rng, core::wildPointerState);
      ASSERT_TRUE(runner.run(states, 4 * g.order()).stabilized);
      const telemetry::Histogram* evaluate =
          registry.findHistogram(telemetry::names::kEvaluateDuration);
      ASSERT_NE(evaluate, nullptr);
      ASSERT_GT(evaluate->count(), 1U);
      const auto evaluated = static_cast<double>(
          registry.counterValue(telemetry::names::kActiveNodes));
      const double rate =
          registry.gaugeValue(telemetry::names::kEvaluationsPerSecond);
      EXPECT_GT(rate, 0.0);
      EXPECT_EQ(rate, evaluated / evaluate->sum())
          << "threads " << threads << " schedule " << toString(schedule);
    }
  }
}

// The runner and its kernel must read the same topology, so a kernel over
// a different Graph or IdAssignment object — even an equal copy — is
// refused, and the runner keeps the kernel it had.
TEST(SetKernel, RejectsKernelOverAnotherTopology) {
  const core::SisProtocol sis;
  const Graph g = graph::cycle(9);
  const auto ids = IdAssignment::reversed(g.order());
  const Graph graphCopy = g;
  const IdAssignment idsCopy = ids;
  SyncRunner<core::BitState> runner(sis, g, ids);
  EXPECT_THROW(
      runner.setKernel(core::makeFlatKernel<core::BitState>(sis, graphCopy,
                                                            ids)),
      std::invalid_argument);
  EXPECT_THROW(
      runner.setKernel(core::makeFlatKernel<core::BitState>(sis, g, idsCopy)),
      std::invalid_argument);
  EXPECT_EQ(runner.kernel(), Kernel::Generic);

  runner.setKernel(core::makeFlatKernel<core::BitState>(sis, g, ids));
  EXPECT_EQ(runner.kernel(), Kernel::Flat);
  EXPECT_THROW(
      runner.setKernel(core::makeFlatKernel<core::BitState>(sis, graphCopy,
                                                            idsCopy)),
      std::invalid_argument);
  EXPECT_EQ(runner.kernel(), Kernel::Flat);
  auto states = runner.initialStates();
  EXPECT_TRUE(runner.run(states, g.order() + 1).stabilized);
  EXPECT_TRUE(
      analysis::isMaximalIndependentSet(g, analysis::membersOf(states)));
}

// Swapping kernels every round frees the old kernel and its caches: the
// trajectory must match a runner that never swaps, with isFixpoint and
// enabledVertices read between swap and step, a topology edit mid-run, and
// the pooled chunking on. Run under ASan, any span kept across a swap or
// an edit would be a use-after-free.
template <typename State, typename Sampler>
void checkKernelSwaps(const Protocol<State>& protocol, Sampler sampler,
                      Schedule schedule, std::size_t threads,
                      std::uint64_t seed) {
  graph::Rng rng(seed);
  Graph g = graph::connectedErdosRenyi(40, 0.12, rng);
  const auto ids = IdAssignment::randomPermutation(g.order(), rng);
  auto reference = randomConfiguration<State>(g, rng, sampler);
  auto swapped = reference;
  SyncRunner<State> plain(protocol, g, ids, seed, schedule);
  SyncRunner<State> swapping(protocol, g, ids, seed, schedule, threads);
  for (std::size_t r = 0; r < 30; ++r) {
    if (r % 3 == 2) {
      swapping.setKernel(nullptr);
    } else {
      swapping.setKernel(core::makeFlatKernel<State>(protocol, g, ids));
    }
    if (r == 10) perturbTopology(g, rng, 5, /*keepConnected=*/false);
    ASSERT_EQ(plain.isFixpoint(reference), swapping.isFixpoint(swapped))
        << "seed " << seed << " round " << r;
    ASSERT_EQ(plain.enabledVertices(reference),
              swapping.enabledVertices(swapped))
        << "seed " << seed << " round " << r;
    ASSERT_EQ(plain.step(reference), swapping.step(swapped))
        << "seed " << seed << " round " << r;
    ASSERT_EQ(reference, swapped) << "seed " << seed << " round " << r;
  }
}

TEST(SetKernel, SwapsBetweenRoundsKeepTheTrajectory) {
  const core::SisProtocol sis;
  const core::SmmProtocol smm = core::smmPaper();
  std::uint64_t seed = 640;
  for (const Schedule schedule : {Schedule::Dense, Schedule::Active}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      checkKernelSwaps<core::BitState>(sis, core::randomBitState, schedule,
                                       threads, seed++);
      checkKernelSwaps<core::PointerState>(smm, core::wildPointerState,
                                           schedule, threads, seed++);
    }
  }
}


// Quiet rounds: once a round moved nothing and nothing was edited, the next
// round's work set is empty and the round is skipped. Every way the
// configuration can change behind the runner's back — a state edit
// announced with invalidateSchedule(), as the runner's contract requires, a
// topology change, a kernel swap — must still get evaluated, and move
// exactly the nodes a fresh runner finds enabled.
template <typename State, typename Sampler>
void checkQuietRounds(const Protocol<State>& protocol, Sampler sampler,
                      bool flat, std::size_t threads) {
  SCOPED_TRACE(std::string(protocol.name()) + (flat ? " flat" : " generic") +
               " threads " + std::to_string(threads));
  graph::Rng rng(77);
  Graph g = graph::connectedRandomGeometric(60, 0.25, rng);
  const auto ids = IdAssignment::identity(g.order());
  const std::size_t n = g.order();
  telemetry::Registry registry;
  std::ostringstream eventText;
  telemetry::EventLog events(eventText);
  SyncRunner<State> runner(protocol, g, ids, 5, Schedule::Dense, threads);
  runner.attachTelemetry(&registry, &events);
  if (flat) runner.setKernel(core::makeFlatKernel<State>(protocol, g, ids));
  auto states = randomConfiguration<State>(g, rng, sampler);
  const auto settle = [&] {
    ASSERT_TRUE(runner.run(states, 4 * n).stabilized);
  };
  const auto enabledCount = [&](const std::vector<State>& s) {
    SyncRunner<State> fresh(protocol, g, ids);
    return fresh.enabledVertices(s).size();
  };
  const auto evaluated = [&] {
    return registry.counterValue(telemetry::names::kActiveNodes);
  };
  // Resamples node states until some node is enabled.
  const auto disturb = [&] {
    for (std::size_t i = 0; enabledCount(states) == 0; ++i) {
      const auto v = static_cast<graph::Vertex>(i % n);
      states[v] = sampler(v, g, rng);
    }
  };

  settle();
  // The run's last round evaluated everyone and moved nothing; the next
  // rounds are quiet: skipped, counted, and logged with "active":0.
  const auto skipped = [&] {
    return registry.counterValue(telemetry::names::kSkippedNodes);
  };
  const std::size_t roundBefore = runner.round();
  std::uint64_t before = evaluated();
  const std::uint64_t skippedBefore = skipped();
  EXPECT_EQ(runner.step(states), 0u);
  EXPECT_EQ(runner.step(states), 0u);
  EXPECT_EQ(evaluated(), before);
  EXPECT_EQ(skipped() - skippedBefore, 2 * n);
  EXPECT_EQ(runner.round(), roundBefore + 2);
  EXPECT_NE(eventText.str().rfind("\"active\":0"), std::string::npos);

  // An external state edit, announced.
  disturb();
  runner.invalidateSchedule();
  std::size_t expected = enabledCount(states);
  EXPECT_EQ(runner.step(states), expected);
  settle();

  // Topology churn, then isFixpoint, then step: the states are those of
  // the last quiet round, but Graph::version() moved, so it runs.
  (void)runner.step(states);
  do {
    perturbTopology(g, rng, 3, /*keepConnected=*/false);
  } while (enabledCount(states) == 0);
  expected = enabledCount(states);
  EXPECT_FALSE(runner.isFixpoint(states));
  EXPECT_EQ(runner.step(states), expected);
  settle();

  // A move that is pinned and reverted (announced): the configuration is
  // back to the one the last round evaluated, but that round moved, so it
  // runs again.
  (void)runner.step(states);
  disturb();
  runner.invalidateSchedule();
  const std::vector<State> pinned = states;
  expected = enabledCount(states);
  ASSERT_EQ(runner.step(states), expected);
  const std::vector<State> afterFirst = states;
  states = pinned;
  runner.invalidateSchedule();
  EXPECT_EQ(runner.step(states), expected);
  EXPECT_EQ(states, afterFirst);
  settle();

  // A kernel swap forgets the quiet round: the next round evaluates all.
  (void)runner.step(states);
  runner.setKernel(flat ? core::makeFlatKernel<State>(protocol, g, ids)
                        : nullptr);
  before = evaluated();
  EXPECT_EQ(runner.step(states), 0u);
  EXPECT_EQ(evaluated() - before, n);
}

TEST(SyncRunnerQuietRounds, ExternalEditsAreNeverSkipped) {
  const core::SisProtocol sis;
  const core::SmmProtocol smm = core::smmPaper();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    for (const bool flat : {false, true}) {
      checkQuietRounds<core::BitState>(sis, core::randomBitState, flat,
                                       threads);
      checkQuietRounds<core::PointerState>(smm, core::wildPointerState, flat,
                                           threads);
    }
  }
}

// Edits named slot by slot (announce) against the same edits left to the
// O(n) diff (invalidateSchedule): both runners must take the same moves and
// evaluate the same work set, round by round, so their event logs ("active"
// included) match byte for byte. Each edit round resamples a few slots,
// some twice and some back to their old state, and names only the slots
// whose state changed. liveEnabled(), asked between edits and rounds, must
// agree with a full LocalView sweep and must not disturb the next round.
template <typename State, typename Sampler>
void checkAnnouncedEdits(const Protocol<State>& protocol, Sampler sampler,
                         Schedule schedule, bool flat, std::size_t threads,
                         std::uint64_t seed) {
  SCOPED_TRACE(std::string(protocol.name()) + " " +
               std::string(toString(schedule)) +
               (flat ? " flat" : " generic") + " threads " +
               std::to_string(threads));
  graph::Rng rng(seed);
  const Graph g = graph::connectedRandomGeometric(90, 0.2, rng);
  const auto ids = IdAssignment::randomPermutation(g.order(), rng);
  const std::size_t n = g.order();
  std::ostringstream namedText;
  std::ostringstream diffedText;
  telemetry::EventLog namedLog(namedText);
  telemetry::EventLog diffedLog(diffedText);
  SyncRunner<State> named(protocol, g, ids, seed, schedule, threads);
  SyncRunner<State> diffed(protocol, g, ids, seed, schedule, threads);
  named.attachTelemetry(nullptr, &namedLog);
  diffed.attachTelemetry(nullptr, &diffedLog);
  if (flat) {
    named.setKernel(core::makeFlatKernel<State>(protocol, g, ids));
    diffed.setKernel(core::makeFlatKernel<State>(protocol, g, ids));
  }
  auto states = randomConfiguration<State>(g, rng, sampler);
  std::vector<State> twin;
  SyncRunner<State> oracle(protocol, g, ids);
  for (std::size_t round = 0; round < 120; ++round) {
    if (round % 6 == 3) {
      const std::vector<State> before = states;
      const std::size_t edits = 1 + rng.below(round % 4 == 3 ? 30 : 4);
      for (std::size_t i = 0; i < edits; ++i) {
        const auto v = static_cast<graph::Vertex>(rng.below(n));
        states[v] = rng.chance(0.2) ? before[v] : sampler(v, g, rng);
      }
      for (graph::Vertex v = 0; v < n; ++v) {
        if (!(states[v] == before[v])) named.announce(v);
      }
      diffed.invalidateSchedule();
    }
    if (round % 3 == 0) {
      ASSERT_EQ(named.liveEnabled(states),
                !oracle.enabledVertices(states).empty())
          << "round " << round;
    }
    twin = states;
    const std::size_t moves = named.step(states);
    ASSERT_EQ(diffed.step(twin), moves) << "round " << round;
    ASSERT_TRUE(states == twin) << "round " << round;
  }
  EXPECT_EQ(namedText.str(), diffedText.str());
}

TEST(SyncRunner, AnnouncedEditsMatchDiff) {
  const core::SisProtocol sis;
  const core::SmmProtocol smm = core::smmPaper();
  std::uint64_t seed = 900;
  for (const Schedule schedule : {Schedule::Dense, Schedule::Active}) {
    for (const bool flat : {false, true}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        checkAnnouncedEdits<core::BitState>(sis, core::randomBitState,
                                            schedule, flat, threads, seed++);
        checkAnnouncedEdits<core::PointerState>(
            smm, core::wildPointerState, schedule, flat, threads, seed++);
      }
    }
  }
}

// A protocol whose decisions read beyond N[v] is never skipped: its inputs
// can change while every state stands still.
TEST(SyncRunnerQuietRounds, NonLocalProtocolIsNeverSkipped) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    const Graph g = graph::binaryTree(15);
    const auto ids = IdAssignment::identity(g.order());
    std::vector<std::uint64_t> readings(g.order(), 1);
    const core::AggregationProtocol protocol(
        static_cast<std::uint32_t>(g.order()), &readings);
    telemetry::Registry registry;
    SyncRunner<core::AggregateState> runner(protocol, g, ids, 0,
                                            Schedule::Dense, threads);
    runner.attachTelemetry(&registry);
    auto states = runner.initialStates();
    ASSERT_TRUE(runner.run(states, 60).stabilized);
    const std::uint64_t before =
        registry.counterValue(telemetry::names::kActiveNodes);
    EXPECT_EQ(runner.step(states), 0u);
    EXPECT_EQ(registry.counterValue(telemetry::names::kActiveNodes) - before,
              g.order());
    readings[9] = 40;
    EXPECT_GT(runner.step(states), 0u) << "threads " << threads;
  }
}

}  // namespace
}  // namespace selfstab::engine

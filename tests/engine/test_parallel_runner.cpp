// The pooled path of the round executor (SyncRunner with threads > 1):
// bit-identity with threads = 1, pooled fixpoint sweeps, and the
// degree-weighted chunking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../support/test_protocols.hpp"
#include "analysis/verifiers.hpp"
#include "core/aggregation.hpp"
#include "core/kernels.hpp"
#include "core/local_mutex.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"
#include "graph/geometry.hpp"
#include "telemetry/event_log.hpp"

namespace selfstab::engine {
namespace {

using core::BitState;
using core::PointerState;
using graph::Graph;
using graph::IdAssignment;
using testing::MaxProtocol;
using testing::ValueState;

TEST(ParallelRunner, RunMatchesSerialForSeveralProtocols) {
  graph::Rng rng(603);
  const Graph g = graph::connectedErdosRenyi(80, 0.08, rng);
  const auto ids = IdAssignment::identity(80);

  {
    const core::SmmProtocol smm = core::smmPaper();
    auto a = engine::randomConfiguration<PointerState>(
        g, rng, core::randomPointerState);
    auto b = a;
    SyncRunner<PointerState> serial(smm, g, ids);
    SyncRunner<PointerState> pooled(smm, g, ids, 0, Schedule::Dense, 3);
    const auto ra = serial.run(a, 200);
    const auto rb = pooled.run(b, 200);
    EXPECT_EQ(ra, rb);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(analysis::checkMatchingFixpoint(g, b).ok());
  }
  {
    const core::SisProtocol sis;
    auto a = engine::randomConfiguration<BitState>(g, rng,
                                                   core::randomBitState);
    auto b = a;
    SyncRunner<BitState> serial(sis, g, ids);
    SyncRunner<BitState> pooled(sis, g, ids, 0, Schedule::Dense, 5);
    EXPECT_EQ(serial.run(a, 200), pooled.run(b, 200));
    EXPECT_EQ(a, b);
  }
  {
    // Aggregation composes the leader-tree rule with a convergecast; both
    // layers evaluate without scratch state, so the pool may run them.
    std::vector<std::uint64_t> readings(g.order());
    for (auto& r : readings) r = rng.below(1000);
    const core::AggregationProtocol aggregation(
        static_cast<std::uint32_t>(g.order()), &readings);
    auto a = engine::randomConfiguration<core::AggregateState>(
        g, rng, core::randomAggregateState);
    auto b = a;
    SyncRunner<core::AggregateState> serial(aggregation, g, ids);
    SyncRunner<core::AggregateState> pooled(aggregation, g, ids, 0,
                                            Schedule::Active, 4);
    const auto ra = serial.run(a, 1000);
    EXPECT_TRUE(ra.stabilized);
    EXPECT_EQ(ra, pooled.run(b, 1000));
    EXPECT_EQ(a, b);
  }
}

// Lockstep per round against threads = 1, then the same fixpoint for every
// thread count (including more workers than some chunks have vertices).
TEST(ParallelRunner, ThreadCountSweepIsInvariant) {
  graph::Rng rng(605);
  const Graph g = graph::connectedErdosRenyi(48, 0.12, rng);
  const auto ids = IdAssignment::identity(48);
  const core::SmmProtocol smm = core::smmPaper();
  const auto start = engine::randomConfiguration<PointerState>(
      g, rng, core::randomPointerState);

  for (const std::size_t threads : {2u, 3u, 7u, 16u}) {
    auto serialStates = start;
    auto pooledStates = start;
    SyncRunner<PointerState> serial(smm, g, ids, /*runSeed=*/5);
    SyncRunner<PointerState> pooled(smm, g, ids, /*runSeed=*/5,
                                    Schedule::Dense, threads);
    EXPECT_EQ(pooled.threadCount(), threads);
    for (int r = 0; r < 10; ++r) {
      EXPECT_EQ(pooled.step(pooledStates), serial.step(serialStates))
          << threads << " threads, round " << r;
      EXPECT_EQ(pooledStates, serialStates)
          << threads << " threads, round " << r;
    }
    const auto sr = serial.run(serialStates, 100);
    const auto pr = pooled.run(pooledStates, 100);
    ASSERT_TRUE(pr.stabilized) << threads << " threads";
    EXPECT_EQ(pr, sr) << threads << " threads";
    EXPECT_EQ(pooledStates, serialStates) << threads << " threads";
  }
}

// A run to its fixpoint (or 200 rounds): the states after every round,
// the move counts and the event log, with the kernel's mirror checked
// against the states after every round.
template <typename State>
struct CommitTrace {
  std::vector<std::vector<State>> states;
  std::vector<std::size_t> moves;
  std::string events;
};

template <typename State>
CommitTrace<State> traceCommits(std::unique_ptr<FlatKernel<State>> kernel,
                                const Protocol<State>& protocol,
                                const Graph& g, const IdAssignment& ids,
                                std::vector<State> states, Schedule schedule,
                                std::size_t threads) {
  std::ostringstream text;
  telemetry::EventLog events(text);
  SyncRunner<State> runner(protocol, g, ids, 9, schedule, threads);
  runner.attachTelemetry(nullptr, &events);
  const FlatKernel<State>& mirror = *kernel;
  runner.setKernel(std::move(kernel));
  CommitTrace<State> trace;
  for (int round = 0; round < 200; ++round) {
    trace.moves.push_back(runner.step(states));
    trace.states.push_back(states);
    EXPECT_TRUE(mirror.mirrors(states)) << "round " << round;
    if (trace.moves.back() == 0) break;
  }
  trace.events = text.str();
  return trace;
}

// Busy rounds (kTeamCommit moves or more) commit on the team, each block by
// the worker that evaluated it. SisKernel's mirror packs 64 vertices into a
// word, and degree-weighted block bounds on a unit-disk graph fall inside
// words, so the blocks must be moved to word boundaries for the commit to
// be race-free (the TSan run checks it). Dense sweeps and Active's lists
// (which commit busy lists too) must give the width-1 run's states,
// mirrors, moves and events at every width.
template <typename State, typename Sampler, typename MakeKernel>
void expectTeamCommitMatchesInline(const Protocol<State>& protocol,
                                   Sampler sampler, MakeKernel makeKernel) {
  graph::Rng rng(4099);
  const Graph g =
      graph::unitDiskGraph(graph::randomPoints(12000, rng), 0.015);
  const auto ids = IdAssignment::identity(g.order());
  const auto bounds = weightedBoundaries(g.order(), 4, [&](std::size_t v) {
    return g.degree(static_cast<graph::Vertex>(v)) + 1;
  });
  ASSERT_TRUE(std::any_of(bounds.begin() + 1, bounds.end() - 1,
                          [](std::size_t b) { return b % 64 != 0; }));
  const auto start = randomConfiguration<State>(g, rng, sampler);
  for (const Schedule schedule : {Schedule::Dense, Schedule::Active}) {
    SCOPED_TRACE(std::string(protocol.name()) + " " +
                 std::string(toString(schedule)));
    const CommitTrace<State> inline1 = traceCommits(
        makeKernel(g, ids), protocol, g, ids, start, schedule, 1);
    ASSERT_EQ(inline1.moves.back(), 0U);
    ASSERT_GE(*std::max_element(inline1.moves.begin(), inline1.moves.end()),
              kTeamCommit);
    for (const std::size_t threads : {2U, 3U, 4U}) {
      const CommitTrace<State> team = traceCommits(
          makeKernel(g, ids), protocol, g, ids, start, schedule, threads);
      EXPECT_EQ(team.moves, inline1.moves) << threads << " threads";
      EXPECT_TRUE(team.states == inline1.states) << threads << " threads";
      EXPECT_EQ(team.events, inline1.events) << threads << " threads";
    }
  }
}

TEST(ParallelRunner, TeamCommitMatchesInline) {
  const core::SmmProtocol smm = core::smmPaper();
  const core::SisProtocol sis;
  const auto compiled = [](const auto& protocol) {
    return [&protocol](const Graph& g, const IdAssignment& ids) {
      using State = typename std::decay_t<decltype(protocol)>::StateType;
      return core::makeFlatKernel<State>(protocol, g, ids);
    };
  };
  const auto generic = [&smm](const Graph& g, const IdAssignment& ids) {
    return std::unique_ptr<FlatKernel<PointerState>>(
        std::make_unique<GenericKernel<PointerState>>(smm, g, ids));
  };
  expectTeamCommitMatchesInline<PointerState>(smm, core::randomPointerState,
                                              compiled(smm));
  expectTeamCommitMatchesInline<BitState>(sis, core::randomBitState,
                                          compiled(sis));
  expectTeamCommitMatchesInline<PointerState>(smm, core::randomPointerState,
                                              generic);
}

TEST(ParallelRunner, MoreThreadsThanVerticesIsFine) {
  const Graph g = graph::path(3);
  const auto ids = IdAssignment::identity(3);
  MaxProtocol protocol;
  SyncRunner<ValueState> runner(protocol, g, ids, 0, Schedule::Dense, 8);
  std::vector<ValueState> states{{0}, {1}, {2}};
  const auto result = runner.run(states, 10);
  EXPECT_TRUE(result.stabilized);
  for (const ValueState& s : states) EXPECT_EQ(s.value, 2u);
}

TEST(ParallelRunner, ZeroThreadRequestClampsToOne) {
  const Graph g = graph::path(4);
  const auto ids = IdAssignment::identity(4);
  MaxProtocol protocol;
  SyncRunner<ValueState> runner(protocol, g, ids, 0, Schedule::Dense, 0);
  EXPECT_EQ(runner.threadCount(), 1u);
  std::vector<ValueState> states{{3}, {0}, {0}, {0}};
  EXPECT_TRUE(runner.run(states, 10).stabilized);
  EXPECT_EQ(states[3].value, 3u);
}

TEST(ParallelRunner, FixpointDetectionUsesIsStable) {
  // A wrapped (randomized) protocol: the pooled runner must not mistake
  // an all-blocked round for stabilization. (Synchronized has no mutable
  // scratch state, so it is safe to evaluate concurrently.)
  graph::Rng rng(607);
  const Graph g = graph::cycle(12);
  const auto ids = IdAssignment::identity(12);
  const core::Synchronized<core::SmmProtocol> wrapped(core::Choice::First,
                                                      core::Choice::First);
  auto states = engine::randomConfiguration<PointerState>(
      g, rng, core::randomPointerState);
  SyncRunner<PointerState> runner(wrapped, g, ids, 9, Schedule::Dense, 4);
  const auto result = runner.run(states, 5000);
  ASSERT_TRUE(result.stabilized);
  EXPECT_TRUE(analysis::checkMatchingFixpoint(g, states).ok());
}

// A rule that throws on a worker thread surfaces in the caller's step(),
// and the pool stays usable afterwards.
TEST(ParallelRunner, WorkerExceptionReachesCaller) {
  class ThrowsAtLastVertex final : public Protocol<ValueState> {
   public:
    [[nodiscard]] std::string_view name() const override { return "throws"; }
    [[nodiscard]] std::optional<ValueState> onRound(
        const LocalView<ValueState>& view) const override {
      if (view.state().value == 99) throw std::runtime_error("rule failed");
      return std::nullopt;
    }
  };
  const Graph g = graph::path(8);
  const auto ids = IdAssignment::identity(8);
  const ThrowsAtLastVertex protocol;
  SyncRunner<ValueState> runner(protocol, g, ids, 0, Schedule::Dense, 3);
  std::vector<ValueState> states(8);
  states[7].value = 99;
  EXPECT_THROW(runner.step(states), std::runtime_error);
  states[7].value = 0;
  EXPECT_EQ(runner.step(states), 0u);
  EXPECT_TRUE(runner.isFixpoint(states));
}

// Regression for the pooled isFixpoint sweep: it must agree with the
// threads = 1 sweep on arbitrary
// configurations — stable, unstable-at-one-vertex, and unstable-only-at-the-
// last-vertex (the early-exit flag must not skip trailing chunks' verdicts).
TEST(ParallelRunner, PooledFixpointMatchesSerial) {
  graph::Rng rng(617);
  const core::SmmProtocol smm = core::smmPaper();
  const core::SisProtocol sis;
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = graph::connectedErdosRenyi(30, 0.15, rng);
    const auto ids = IdAssignment::identity(g.order());
    SyncRunner<PointerState> serial(smm, g, ids, 5);
    SyncRunner<PointerState> pooled(smm, g, ids, 5, Schedule::Dense, 4);

    // Arbitrary (mostly unstable) configuration.
    auto states = engine::randomConfiguration<PointerState>(
        g, rng, core::wildPointerState);
    EXPECT_EQ(serial.isFixpoint(states), pooled.isFixpoint(states))
        << "trial " << trial;

    // Converged configuration: both must report a fixpoint.
    serial.run(states, 2 * g.order() + 1);
    ASSERT_TRUE(serial.isFixpoint(states)) << "trial " << trial;
    EXPECT_TRUE(pooled.isFixpoint(states)) << "trial " << trial;

    // Perturb exactly one vertex — including the very last one, which only
    // the final worker's chunk sees.
    for (const graph::Vertex v :
         {graph::Vertex{0}, static_cast<graph::Vertex>(g.order() - 1)}) {
      auto poked = states;
      poked[v].ptr = poked[v].ptr == graph::kNoVertex ? v : graph::kNoVertex;
      EXPECT_EQ(serial.isFixpoint(poked), pooled.isFixpoint(poked))
          << "trial " << trial << " vertex " << v;
    }
  }
  // SIS spot-check with the flat kernel installed: the stability sweep must
  // stay on the generic view path (external states may not match the mirror).
  const Graph g = graph::star(17);
  const auto ids = IdAssignment::identity(g.order());
  SyncRunner<BitState> serial(sis, g, ids, 5);
  SyncRunner<BitState> pooled(sis, g, ids, 5, Schedule::Dense, 4);
  pooled.setKernel(core::makeFlatKernel<BitState>(sis, g, ids));
  std::vector<BitState> all(g.order(), BitState{true});
  EXPECT_EQ(serial.isFixpoint(all), pooled.isFixpoint(all));
  std::vector<BitState> none(g.order(), BitState{false});
  EXPECT_EQ(serial.isFixpoint(none), pooled.isFixpoint(none));
}

// Degree-weighted partition boundaries: monotone, covering, degenerate-safe,
// and actually balancing weight (not count) across parts.
TEST(ParallelRunner, WeightedBoundaries) {
  // Zero items.
  const auto none = weightedBoundaries(0, 4, [](std::size_t) { return 1; });
  ASSERT_EQ(none.size(), 5u);
  for (const std::size_t b : none) EXPECT_EQ(b, 0u);

  // Zero parts clamps to one.
  const auto one = weightedBoundaries(5, 0, [](std::size_t) { return 2; });
  ASSERT_EQ(one.size(), 2u);
  EXPECT_EQ(one.front(), 0u);
  EXPECT_EQ(one.back(), 5u);

  // All-zero weights fall back to equal-count chunks.
  const auto flat = weightedBoundaries(8, 4, [](std::size_t) { return 0; });
  const std::vector<std::size_t> expectFlat{0, 2, 4, 6, 8};
  EXPECT_EQ(flat, expectFlat);

  // One heavy item: it lands alone in the first part, the light tail is
  // spread over the rest.
  const auto skew = weightedBoundaries(
      9, 3, [](std::size_t i) { return i == 0 ? std::size_t{100} : 1; });
  ASSERT_EQ(skew.size(), 4u);
  EXPECT_EQ(skew.front(), 0u);
  EXPECT_EQ(skew.back(), 9u);
  EXPECT_EQ(skew[1], 1u);  // the hub fills part 0 on its own

  // Property sweep: boundaries are sorted, cover [0, count], and no part's
  // weight exceeds total/parts + the heaviest single item (the prefix rule's
  // worst case).
  graph::Rng rng(907);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t count = rng.below(200);
    const std::size_t parts = 1 + rng.below(8);
    std::vector<std::size_t> weights(count);
    std::size_t total = 0;
    std::size_t heaviest = 0;
    for (auto& w : weights) {
      w = rng.below(20);
      total += w;
      heaviest = std::max(heaviest, w);
    }
    const auto bounds =
        weightedBoundaries(count, parts, [&](std::size_t i) { return weights[i]; });
    ASSERT_EQ(bounds.size(), parts + 1);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), count);
    for (std::size_t p = 0; p < parts; ++p) {
      ASSERT_LE(bounds[p], bounds[p + 1]) << "trial " << trial;
      if (total == 0) continue;
      std::size_t partWeight = 0;
      for (std::size_t i = bounds[p]; i < bounds[p + 1]; ++i) {
        partWeight += weights[i];
      }
      EXPECT_LE(partWeight, total / parts + heaviest + 1)
          << "trial " << trial << " part " << p;
    }
  }
}

// The flat kernel on the pool must match the threads = 1 generic runner
// through full runs — the narrow regression companion to the
// KernelDifferential stress suite.
TEST(ParallelRunner, FlatKernelRunMatchesSerialGeneric) {
  graph::Rng rng(619);
  const core::SmmProtocol smm = core::smmPaper();
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::preferentialAttachment(40, 3, rng);
    const auto ids = IdAssignment::identity(g.order());
    auto serialStates = engine::randomConfiguration<PointerState>(
        g, rng, core::wildPointerState);
    auto pooledStates = serialStates;

    SyncRunner<PointerState> serial(smm, g, ids, 7);
    SyncRunner<PointerState> pooled(smm, g, ids, 7, Schedule::Dense, 4);
    pooled.setKernel(core::makeFlatKernel<PointerState>(smm, g, ids));
    const auto sr = serial.run(serialStates, 2 * g.order() + 8);
    const auto pr = pooled.run(pooledStates, 2 * g.order() + 8);
    EXPECT_TRUE(sr == pr) << "trial " << trial;
    EXPECT_TRUE(serialStates == pooledStates) << "trial " << trial;
  }
}

// Two threads each drive a threads = 2 runner at once: both dispatch on the
// one process team, so whichever finds it busy runs its rounds inline. Each
// trajectory must still equal its serial run.
TEST(ParallelRunner, ConcurrentRunnersShareTheProcessTeam) {
  graph::Rng rng(611);
  const Graph g = graph::connectedErdosRenyi(3000, 0.003, rng);
  const auto ids = IdAssignment::randomPermutation(g.order(), rng);
  const core::SmmProtocol smm = core::smmPaper();
  const core::SisProtocol sis;
  const auto smmStart = engine::randomConfiguration<PointerState>(
      g, rng, core::randomPointerState);
  const auto sisStart =
      engine::randomConfiguration<BitState>(g, rng, core::randomBitState);
  auto smmSerial = smmStart;
  auto sisSerial = sisStart;
  SyncRunner<PointerState> smmOracle(smm, g, ids, /*runSeed=*/3);
  SyncRunner<BitState> sisOracle(sis, g, ids, /*runSeed=*/4);
  const RunResult smmExpected = smmOracle.run(smmSerial, 10000);
  const RunResult sisExpected = sisOracle.run(sisSerial, 10000);
  ASSERT_TRUE(smmExpected.stabilized);
  ASSERT_TRUE(sisExpected.stabilized);

  for (int trial = 0; trial < 20; ++trial) {
    auto smmStates = smmStart;
    auto sisStates = sisStart;
    RunResult smmResult;
    RunResult sisResult;
    std::thread first([&] {
      SyncRunner<PointerState> runner(smm, g, ids, 3, Schedule::Dense, 2);
      smmResult = runner.run(smmStates, 10000);
    });
    std::thread second([&] {
      SyncRunner<BitState> runner(sis, g, ids, 4, Schedule::Dense, 2);
      sisResult = runner.run(sisStates, 10000);
    });
    first.join();
    second.join();
    EXPECT_EQ(smmResult, smmExpected) << "trial " << trial;
    EXPECT_EQ(smmStates, smmSerial) << "trial " << trial;
    EXPECT_EQ(sisResult, sisExpected) << "trial " << trial;
    EXPECT_EQ(sisStates, sisSerial) << "trial " << trial;
  }
}

}  // namespace
}  // namespace selfstab::engine

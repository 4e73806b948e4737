#include "engine/sync_runner.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "../support/test_protocols.hpp"
#include "analysis/verifiers.hpp"
#include "core/kernels.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

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

// The installed kernel's CSR is the topology the runner reads, so a kernel
// over a different Graph or IdAssignment object — even an equal copy — is
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

// Swapping kernels every round frees the CSR the runner was reading: the
// trajectory must match a runner that never swaps, with isFixpoint and
// enabledVertices read between swap and step, a topology edit mid-run, and
// the pooled chunking on. Run under ASan, any span kept across a swap
// would be a use-after-free.
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

}  // namespace
}  // namespace selfstab::engine

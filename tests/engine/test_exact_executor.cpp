// Differential suite for SyncRunner's exact work-set executor.
//
// The executor evaluates only N[moved] ∪ N[edited] each round — as a list
// while the set is small, as a sweep once it is large — and skips a round
// whose set is empty. Its claim is that this never changes a trajectory.
// Every local CLI protocol (smm, sis, coloring, bfstree, leadertree) runs
// here on a few graphs, at threads 1 and 3, under three modes:
//   * Dense  — the adaptive executor (list or sweep per round),
//   * Active — the same work set, always walked as a list,
//   * Sweep  — the textbook oracle: full reload, every node, every round;
// from random starts, through corruptAndReschedule bursts, and through
// fault campaigns with corrupt, crash, partition and stuck events. States
// must agree after every round.
//
// The suite must also be able to fail: modelAgreesWithOracle below replays
// the work-set rule in a few lines over the same kernels, and marking only
// the movers (not their neighbours) must make it diverge from the oracle on
// the suite's own cases.
//
// Iteration counts scale with SELFSTAB_STRESS_ITERS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "chaos/campaign.hpp"
#include "core/bfs_tree.hpp"
#include "core/coloring.hpp"
#include "core/kernels.hpp"
#include "core/leader_tree.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"
#include "telemetry/telemetry.hpp"

namespace selfstab {
namespace {

using engine::Schedule;
using engine::SyncRunner;
using graph::Graph;
using graph::IdAssignment;
using graph::Vertex;

std::size_t stressIters(std::size_t fallback) {
  if (const char* env = std::getenv("SELFSTAB_STRESS_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

// A unit-disk graph big enough for pooled work lists (longer than the
// executor's inline threshold, shorter than its sweep limit), a sparse
// G(n,p) and a star, whose hub sees every move.
Graph makeGraph(std::size_t which, graph::Rng& rng) {
  switch (which % 3) {
    case 0:
      return graph::connectedRandomGeometric(3000, 0.04, rng);
    case 1:
      return graph::connectedErdosRenyi(300, 0.02, rng);
    default:
      return graph::star(120);
  }
}

constexpr Schedule kModes[] = {Schedule::Sweep, Schedule::Dense,
                               Schedule::Active};

template <typename State>
std::unique_ptr<SyncRunner<State>> makeRunner(
    const engine::Protocol<State>& protocol, const Graph& g,
    const IdAssignment& ids, std::uint64_t seed, Schedule schedule,
    std::size_t threads) {
  auto runner = std::make_unique<SyncRunner<State>>(protocol, g, ids, seed,
                                                    schedule, threads);
  if (auto kernel = core::makeFlatKernel<State>(protocol, g, ids)) {
    runner->setKernel(std::move(kernel));
  }
  return runner;
}

std::string where(std::string_view protocol, Schedule mode,
                  std::size_t threads, std::uint64_t seed, std::size_t n,
                  std::size_t round) {
  return std::string(protocol) + " " + std::string(engine::toString(mode)) +
         " threads " + std::to_string(threads) + " seed " +
         std::to_string(seed) + " n " + std::to_string(n) + " round " +
         std::to_string(round);
}

// Lockstep: every mode at `threads` against the Sweep oracle at threads 1,
// from a random start, with two corruption bursts announced through
// corruptAndReschedule (identical Rng streams, so identical victims).
template <typename State, typename Sampler>
void checkLockstep(const engine::Protocol<State>& protocol, Sampler sampler,
                   std::uint64_t seed, std::size_t threads) {
  graph::Rng rng(seed);
  const Graph g = makeGraph(static_cast<std::size_t>(seed), rng);
  const IdAssignment ids = IdAssignment::randomPermutation(g.order(), rng);
  const auto start = engine::randomConfiguration<State>(g, rng, sampler);
  auto oracle = makeRunner(protocol, g, ids, seed, Schedule::Sweep, 1);
  std::vector<std::unique_ptr<SyncRunner<State>>> runners;
  for (const Schedule mode : kModes) {
    runners.push_back(makeRunner(protocol, g, ids, seed, mode, threads));
  }
  auto expected = start;
  std::vector<std::vector<State>> states(runners.size(), start);
  const std::size_t rounds = 2 * g.order() + 40;
  for (std::size_t r = 0; r < rounds; ++r) {
    if (r == 3 || r == 17) {
      graph::Rng burst(seed ^ r);
      engine::corruptAndReschedule(*oracle, expected, g, burst, 0.02,
                                   sampler);
      for (std::size_t i = 0; i < runners.size(); ++i) {
        graph::Rng same(seed ^ r);
        engine::corruptAndReschedule(*runners[i], states[i], g, same, 0.02,
                                     sampler);
      }
    }
    const std::size_t moves = oracle->step(expected);
    for (std::size_t i = 0; i < runners.size(); ++i) {
      ASSERT_EQ(runners[i]->step(states[i]), moves)
          << where(protocol.name(), kModes[i], threads, seed, g.order(), r);
      ASSERT_TRUE(states[i] == expected)
          << where(protocol.name(), kModes[i], threads, seed, g.order(), r);
    }
    if (r > 17 && moves == 0 && oracle->isFixpoint(expected)) break;
  }
}

// The campaign's Runner interface over a SyncRunner, recording the states
// after every step, before the campaign pins frozen nodes.
template <typename State>
class Recorder {
 public:
  Recorder(SyncRunner<State>& runner, std::vector<std::vector<State>>& trace)
      : runner_(runner), trace_(trace) {}
  std::size_t step(std::vector<State>& states) {
    const std::size_t moves = runner_.step(states);
    trace_.push_back(states);
    return moves;
  }
  bool isFixpoint(const std::vector<State>& states) {
    return runner_.isFixpoint(states);
  }
  void invalidateSchedule() noexcept { runner_.invalidateSchedule(); }
  [[nodiscard]] std::size_t round() const noexcept { return runner_.round(); }
  [[nodiscard]] std::uint64_t roundKey(std::size_t r) const noexcept {
    return runner_.roundKey(r);
  }
  template <typename F>
  void forEachMoved(F&& f) const {
    runner_.forEachMoved(std::forward<F>(f));
  }

 private:
  SyncRunner<State>& runner_;
  std::vector<std::vector<State>>& trace_;
};

// Corrupt, stuck, crash, partition, a fraction-sampled corrupt, heal,
// rejoin, release and a last corrupt, spaced so windows overlap recovery.
chaos::FaultPlan mixedPlan(std::size_t n) {
  using chaos::FaultEvent;
  using chaos::FaultKind;
  const auto single = [](std::int64_t at, FaultKind kind, Vertex node) {
    FaultEvent ev;
    ev.at = at;
    ev.kind = kind;
    ev.node = node;
    return ev;
  };
  const auto some = [&](std::int64_t at, FaultKind kind, Vertex from,
                        Vertex count) {
    FaultEvent ev;
    ev.at = at;
    ev.kind = kind;
    for (Vertex v = from; v < from + count && v < n; ++v) {
      ev.nodes.push_back(v);
    }
    return ev;
  };
  const auto third = static_cast<Vertex>(n / 3);
  chaos::FaultPlan plan;
  plan.events.push_back(some(3, FaultKind::Corrupt, 1, 5));
  plan.events.push_back(single(5, FaultKind::Stuck, third));
  plan.events.push_back(single(7, FaultKind::Crash, 2 * third));
  plan.events.push_back(some(10, FaultKind::PartitionCut, 0, third));
  FaultEvent sampled;
  sampled.at = 14;
  sampled.kind = FaultKind::Corrupt;
  sampled.fraction = 0.05;
  plan.events.push_back(sampled);
  plan.events.push_back(some(20, FaultKind::PartitionHeal, 0, 0));
  plan.events.push_back(single(24, FaultKind::Rejoin, 2 * third));
  plan.events.push_back(single(27, FaultKind::Release, third));
  plan.events.push_back(some(30, FaultKind::Corrupt, third, 7));
  return plan;
}

template <typename State, typename Sampler>
void checkCampaign(const engine::Protocol<State>& protocol, Sampler sampler,
                   std::uint64_t seed, std::size_t threads) {
  graph::Rng rng(seed);
  const Graph base = makeGraph(static_cast<std::size_t>(seed), rng);
  const IdAssignment ids = IdAssignment::randomPermutation(base.order(), rng);
  const auto start = engine::randomConfiguration<State>(base, rng, sampler);
  const chaos::FaultPlan plan = mixedPlan(base.order());
  std::vector<std::vector<State>> expectedTrace;
  std::vector<State> expected;
  chaos::CampaignResult expectedResult;
  for (const Schedule mode : kModes) {
    Graph g = base;
    auto runner = makeRunner(protocol, g, ids, seed, mode,
                             mode == Schedule::Sweep ? 1 : threads);
    std::vector<std::vector<State>> trace;
    Recorder<State> recorder(*runner, trace);
    auto states = start;
    const chaos::CampaignResult result = chaos::runEngineCampaign(
        recorder, protocol, g, ids, states, plan, seed ^ 0xC4A05ULL, 0,
        sampler);
    if (mode == Schedule::Sweep) {
      expectedTrace = std::move(trace);
      expected = std::move(states);
      expectedResult = result;
      continue;
    }
    const std::string at =
        where(protocol.name(), mode, threads, seed, g.order(), 0);
    ASSERT_EQ(trace.size(), expectedTrace.size()) << at;
    for (std::size_t r = 0; r < trace.size(); ++r) {
      ASSERT_TRUE(trace[r] == expectedTrace[r])
          << where(protocol.name(), mode, threads, seed, g.order(), r);
    }
    EXPECT_TRUE(states == expected) << at;
    EXPECT_EQ(result.roundsExecuted, expectedResult.roundsExecuted) << at;
    EXPECT_EQ(result.totalMoves, expectedResult.totalMoves) << at;
    EXPECT_EQ(result.recoveredAll, expectedResult.recoveredAll) << at;
    EXPECT_EQ(result.finalFixpoint, expectedResult.finalFixpoint) << at;
  }
}

template <typename State, typename Sampler>
void checkProtocol(const engine::Protocol<State>& protocol, Sampler sampler,
                   std::uint64_t seedBase) {
  const std::size_t iters = stressIters(3);
  for (std::uint64_t i = 0; i < iters; ++i) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      checkLockstep<State>(protocol, sampler, seedBase + i, threads);
      checkCampaign<State>(protocol, sampler, seedBase + i, threads);
    }
  }
}

TEST(ExactExecutor, Smm) {
  const core::SmmProtocol smm = core::smmPaper();
  checkProtocol<core::PointerState>(smm, core::wildPointerState, 17000);
}

TEST(ExactExecutor, Sis) {
  const core::SisProtocol sis;
  checkProtocol<core::BitState>(sis, core::randomBitState, 17100);
}

TEST(ExactExecutor, Coloring) {
  const core::ColoringProtocol coloring;
  checkProtocol<core::ColorState>(coloring, core::randomColorState, 17200);
}

TEST(ExactExecutor, BfsTree) {
  const core::BfsTreeProtocol bfs(0, 256);
  checkProtocol<core::TreeState>(bfs, core::randomTreeState, 17300);
}

TEST(ExactExecutor, LeaderTree) {
  const core::LeaderTreeProtocol leader(256);
  checkProtocol<core::LeaderState>(leader, core::randomLeaderState, 17400);
}

// The runner's moved list is exactly the diff of `states` across step(),
// in ascending order, in every mode and at every thread count.
TEST(ExactExecutor, MovedListEqualsStateDiff) {
  const core::SmmProtocol smm = core::smmPaper();
  for (const Schedule mode : kModes) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      graph::Rng rng(17500);
      const Graph g = makeGraph(0, rng);
      const IdAssignment ids = IdAssignment::identity(g.order());
      auto runner = makeRunner(smm, g, ids, 3, mode, threads);
      auto states = engine::randomConfiguration<core::PointerState>(
          g, rng, core::wildPointerState);
      std::vector<Vertex> moved;
      std::vector<Vertex> diff;
      for (std::size_t r = 0; r < 60; ++r) {
        const auto before = states;
        const std::size_t moves = runner->step(states);
        moved.clear();
        runner->forEachMoved([&](Vertex v) { moved.push_back(v); });
        diff.clear();
        for (Vertex v = 0; v < g.order(); ++v) {
          if (!(before[v] == states[v])) diff.push_back(v);
        }
        ASSERT_EQ(moved, diff) << where("smm", mode, threads, 0, g.order(), r);
        ASSERT_EQ(moves, moved.size());
      }
    }
  }
}

// An announced edit of k nodes costs the next round |N[edited]|
// evaluations, not n: invalidateSchedule() diffs the mirror and marks only
// the changed slots' closed neighbourhoods.
TEST(ExactExecutor, InvalidateEvaluatesOnlyEditedNeighbourhoods) {
  const core::SisProtocol sis;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    graph::Rng rng(17600);
    const Graph g = makeGraph(0, rng);
    const IdAssignment ids = IdAssignment::identity(g.order());
    for (const bool flat : {false, true}) {
      SyncRunner<core::BitState> runner(sis, g, ids, 0, Schedule::Dense,
                                        threads);
      if (flat) {
        runner.setKernel(core::makeFlatKernel<core::BitState>(sis, g, ids));
      }
      telemetry::Registry registry;
      runner.attachTelemetry(&registry);
      auto states = runner.initialStates();
      ASSERT_TRUE(runner.run(states, g.order() + 1).stabilized);
      const auto evaluated = [&] {
        return registry.counterValue(telemetry::names::kActiveNodes);
      };
      std::vector<std::uint8_t> closed(g.order(), 0);
      for (const Vertex v : {Vertex{10}, Vertex{500}, Vertex{2900}}) {
        states[v].in = !states[v].in;
        closed[v] = 1;
        for (const Vertex w : g.neighbors(v)) closed[w] = 1;
      }
      // A write of the value already there: unchanged slots cost nothing.
      states[1234] = core::BitState{states[1234].in};
      const auto expected = static_cast<std::uint64_t>(
          std::count(closed.begin(), closed.end(), 1));
      ASSERT_LT(expected * 8, g.order());
      runner.invalidateSchedule();
      const std::uint64_t before = evaluated();
      (void)runner.step(states);
      EXPECT_EQ(evaluated() - before, expected)
          << (flat ? "flat" : "generic") << " threads " << threads;
    }
  }
}

// run() announces edits made since the last step() itself: a caller that
// perturbs a converged configuration and calls run() gets the oracle's
// trajectory without calling invalidateSchedule().
TEST(ExactExecutor, RunAnnouncesEditsSinceTheLastStep) {
  const core::SisProtocol sis;
  graph::Rng rng(17700);
  const Graph g = makeGraph(0, rng);
  const IdAssignment ids = IdAssignment::identity(g.order());
  auto runner = makeRunner(sis, g, ids, 0, Schedule::Dense, 1);
  auto oracle = makeRunner(sis, g, ids, 0, Schedule::Sweep, 1);
  auto states = runner->initialStates();
  auto expected = states;
  ASSERT_TRUE(runner->run(states, g.order() + 1).stabilized);
  ASSERT_TRUE(oracle->run(expected, g.order() + 1).stabilized);
  for (const Vertex v : {Vertex{7}, Vertex{1500}}) {
    states[v].in = !states[v].in;
    expected[v].in = !expected[v].in;
  }
  const engine::RunResult got = runner->run(states, g.order() + 1);
  const engine::RunResult want = oracle->run(expected, g.order() + 1);
  EXPECT_GT(want.totalMoves, 0u);
  EXPECT_TRUE(got == want);
  EXPECT_TRUE(states == expected);
}

// Minimal model of the work-set rule over a FlatKernel, stepped in
// lockstep with the Sweep oracle from a random start through one announced
// corruption burst: evaluate the marked vertices as a list, commit, mark
// each mover and each edited slot — and, unless the planted bug is on,
// their neighbours. True if the two agree for `rounds` rounds.
template <typename State, typename Sampler>
bool modelAgreesWithOracle(const engine::Protocol<State>& protocol,
                           Sampler sampler, std::uint64_t seed,
                           bool markNeighbours) {
  graph::Rng rng(seed);
  const Graph g = makeGraph(static_cast<std::size_t>(seed), rng);
  const IdAssignment ids = IdAssignment::randomPermutation(g.order(), rng);
  auto states = engine::randomConfiguration<State>(g, rng, sampler);
  auto expected = states;
  auto oracle = makeRunner(protocol, g, ids, seed, Schedule::Sweep, 1);
  std::unique_ptr<engine::FlatKernel<State>> kernel =
      core::makeFlatKernel<State>(protocol, g, ids);
  if (kernel == nullptr) {
    kernel = std::make_unique<engine::GenericKernel<State>>(protocol, g, ids);
  }
  kernel->sync(states, nullptr, 1);
  std::vector<std::uint8_t> marked(g.order(), 1);
  const auto mark = [&](Vertex v) {
    marked[v] = 1;
    if (!markNeighbours) return;
    for (const Vertex w : g.neighbors(v)) marked[w] = 1;
  };
  for (std::size_t r = 0; r < 40; ++r) {
    if (r == 8) {
      graph::Rng burst(seed);
      engine::corruptAndReschedule(*oracle, expected, g, burst, 0.02,
                                   sampler);
      graph::Rng same(seed);
      engine::corruptConfiguration(states, g, same, 0.02, sampler);
      std::vector<Vertex> changed;
      kernel->sync(states, &changed, 1);
      for (const Vertex v : changed) mark(v);
    }
    std::vector<Vertex> work;
    for (Vertex v = 0; v < g.order(); ++v) {
      if (marked[v] != 0) work.push_back(v);
    }
    std::fill(marked.begin(), marked.end(), 0);
    engine::MoveList<State> moves;
    kernel->evaluateList(work, oracle->roundKey(r), moves);
    kernel->apply(moves);
    for (const auto& [v, next] : moves) {
      states[v] = next;
      mark(v);
    }
    (void)oracle->step(expected);
    if (!(states == expected)) return false;
  }
  return true;
}

// The planted bug: marking only the movers and edited slots lets a
// neighbour that a move or an edit enabled sleep through its turn. The
// suite's cases must catch it on every protocol, while the correct rule
// passes the same comparison. (Synchronous SMM from a wild start happens
// never to enable a node that did not move in the round before; the
// corruption burst is what exposes the bug there.)
TEST(ExactExecutor, MarkingOnlyMoversIsCaught) {
  const core::SmmProtocol smm = core::smmPaper();
  const core::SisProtocol sis;
  const core::ColoringProtocol coloring;
  const core::BfsTreeProtocol bfs(0, 256);
  const core::LeaderTreeProtocol leader(256);
  const auto check = [](const auto& protocol, auto sampler,
                        std::uint64_t seed) {
    using State = typename std::decay_t<decltype(protocol)>::StateType;
    bool caught = false;
    for (std::uint64_t s = seed; s < seed + 3; ++s) {
      EXPECT_TRUE(modelAgreesWithOracle<State>(protocol, sampler, s, true))
          << protocol.name() << " seed " << s;
      caught = caught ||
               !modelAgreesWithOracle<State>(protocol, sampler, s, false);
    }
    EXPECT_TRUE(caught) << protocol.name();
  };
  check(smm, core::wildPointerState, 17000);
  check(sis, core::randomBitState, 17100);
  check(coloring, core::randomColorState, 17200);
  check(bfs, core::randomTreeState, 17300);
  check(leader, core::randomLeaderState, 17400);
}

}  // namespace
}  // namespace selfstab

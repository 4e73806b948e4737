// Property-based differential harness for the flat protocol kernels.
//
// The flat kernels (src/core/sis_kernel.hpp, src/core/smm_kernel.hpp) claim
// *bit-identical* trajectories against the generic LocalView + virtual
// onRound path: same per-round state vectors, same move counts, same
// RunResult, same fixpoint behavior — for every SMM choice-policy
// combination, both SIS seniorities, one and four threads, both
// schedules, arbitrary (possibly corrupt) starts, mid-run fault bursts,
// topology churn, and full chaos campaigns. This suite hammers that claim with
// randomized combinations and fails with a replayable seed.
//
// Iteration count scales with the SELFSTAB_STRESS_ITERS env var.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adhoc/mobility.hpp"
#include "adhoc/network.hpp"
#include "chaos/campaign.hpp"
#include "chaos/monitors.hpp"
#include "chaos/plan.hpp"
#include "core/kernels.hpp"
#include "core/local_mutex.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"

namespace selfstab {
namespace {

using core::BitState;
using core::Choice;
using core::PointerState;
using core::Seniority;
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

// Topology mix: the random families plus the structured corner cases that
// stress the kernels specifically — stars (one giant bigger-neighbor
// slice), cliques (every word of the bitset probed), paths (chains of
// single-bit groups), and hub-heavy preferential attachment (the
// degree-weighted partitioner's target regime).
Graph makeGraph(std::size_t family, graph::Rng& rng) {
  switch (family % 8) {
    case 0:
      return graph::connectedErdosRenyi(8 + rng.below(60), 0.15, rng);
    case 1:
      return graph::connectedRandomGeometric(8 + rng.below(60), 0.3, rng);
    case 2:
      return graph::path(1 + rng.below(70));
    case 3:
      return graph::star(2 + rng.below(70));
    case 4:
      return graph::complete(2 + rng.below(16));
    case 5:
      return graph::cycle(3 + rng.below(64));
    case 6:
      return graph::preferentialAttachment(8 + rng.below(60),
                                           1 + rng.below(4), rng);
    default:
      return graph::randomTree(2 + rng.below(70), rng);
  }
}

IdAssignment makeIds(const Graph& g, std::uint64_t choice, graph::Rng& rng) {
  switch (choice % 4) {
    case 0:
      return IdAssignment::identity(g.order());
    case 1:
      return IdAssignment::reversed(g.order());
    case 2:
      return IdAssignment::randomPermutation(g.order(), rng);
    default:
      return IdAssignment::randomSparse(g.order(), rng);
  }
}

std::string label(std::string_view protocol, std::uint64_t seed,
                  const Graph& g, std::size_t round) {
  std::ostringstream ss;
  ss << protocol << " seed=" << seed << " n=" << g.order()
     << " m=" << g.size() << " round=" << round
     << " (replay: SELFSTAB_STRESS_ITERS + this seed)";
  return ss.str();
}

template <typename State>
void attachFlat(SyncRunner<State>& runner,
                const engine::Protocol<State>& protocol, const Graph& g,
                const IdAssignment& ids) {
  auto kernel = core::makeFlatKernel<State>(protocol, g, ids);
  ASSERT_NE(kernel, nullptr) << protocol.name();
  runner.setKernel(std::move(kernel));
}

// Lockstep flat-vs-generic under `schedule`: the generic reference at
// threads = 1, the flat kernel at `threads`, with a mid-run fault burst
// replayed identically onto both trajectories. Also asserts isFixpoint
// parity on every quiet round and RunResult parity from fresh runners.
template <typename State, typename Sampler>
void checkKernel(const engine::Protocol<State>& protocol, Sampler sampler,
                 Schedule schedule, std::uint64_t seed,
                 std::size_t threads = 1) {
  graph::Rng rng(seed);
  const Graph g = makeGraph(static_cast<std::size_t>(seed), rng);
  const IdAssignment ids = makeIds(g, seed / 7, rng);
  auto genericStates = engine::randomConfiguration<State>(g, rng, sampler);
  auto flatStates = genericStates;
  const std::size_t maxRounds = 4 * g.order() + 8;

  SyncRunner<State> generic(protocol, g, ids, seed, schedule);
  SyncRunner<State> flat(protocol, g, ids, seed, schedule, threads);
  attachFlat(flat, protocol, g, ids);

  for (std::size_t r = 0; r < maxRounds; ++r) {
    if (r == g.order() / 2 + 1) {
      graph::Rng faultRngA(seed ^ 0xfau);
      graph::Rng faultRngB(seed ^ 0xfau);
      engine::corruptAndReschedule(generic, genericStates, g, faultRngA, 0.3,
                                   sampler);
      engine::corruptAndReschedule(flat, flatStates, g, faultRngB, 0.3,
                                   sampler);
      ASSERT_TRUE(genericStates == flatStates);
    }
    const std::size_t gm = generic.step(genericStates);
    const std::size_t fm = flat.step(flatStates);
    ASSERT_EQ(gm, fm) << label(protocol.name(), seed, g, r);
    ASSERT_TRUE(genericStates == flatStates)
        << label(protocol.name(), seed, g, r);
    if (gm == 0) {
      ASSERT_EQ(generic.isFixpoint(genericStates),
                flat.isFixpoint(flatStates))
          << label(protocol.name(), seed, g, r);
      if (generic.isFixpoint(genericStates)) break;
    }
  }

  // RunResult parity from fresh runners over the same start.
  auto gs = engine::randomConfiguration<State>(g, rng, sampler);
  auto fs = gs;
  SyncRunner<State> generic2(protocol, g, ids, seed, schedule);
  SyncRunner<State> flat2(protocol, g, ids, seed, schedule, threads);
  attachFlat(flat2, protocol, g, ids);
  const engine::RunResult gr = generic2.run(gs, maxRounds);
  const engine::RunResult fr = flat2.run(fs, maxRounds);
  EXPECT_TRUE(gr == fr) << label(protocol.name(), seed, g, gr.rounds);
  EXPECT_TRUE(gs == fs) << label(protocol.name(), seed, g, gr.rounds);
}

// Full chaos campaign (crash/partition/corruption template plan) run twice,
// generic at threads = 1 vs flat at `threads`; the campaign rebuilds its own
// copy of the topology in place, so this also covers the kernels'
// version-keyed caches under edge masking (and, on the pool, the
// degree-weighted repartitioning plus the pooled fixpoint sweep).
template <typename State, typename Sampler>
void checkChaosCampaign(const engine::Protocol<State>& protocol,
                        Sampler sampler, const char* planTemplate,
                        std::uint64_t seed, std::size_t threads = 1) {
  graph::Rng rng(seed);
  Graph base = makeGraph(static_cast<std::size_t>(seed), rng);
  if (base.order() < 6) base = graph::connectedErdosRenyi(12, 0.3, rng);
  const IdAssignment ids = makeIds(base, seed / 7, rng);
  const auto start = engine::randomConfiguration<State>(base, rng, sampler);
  const chaos::FaultPlan plan = chaos::parseChaosSpec(
      std::string(planTemplate) + ":" + std::to_string(seed % 16),
      base.order());

  const auto runOnce = [&](bool flat, std::vector<State>& states) {
    Graph effective = base;
    SyncRunner<State> runner(protocol, effective, ids, seed, Schedule::Active,
                             flat ? threads : 1);
    if (flat) attachFlat(runner, protocol, effective, ids);
    return chaos::runEngineCampaign(runner, protocol, effective, ids, states,
                                    plan, hashCombine(seed, 0xC4A05ULL),
                                    /*recoveryBudget=*/0, sampler);
  };

  auto genericStates = start;
  auto flatStates = start;
  const chaos::CampaignResult gr = runOnce(false, genericStates);
  const chaos::CampaignResult fr = runOnce(true, flatStates);
  EXPECT_TRUE(genericStates == flatStates)
      << label(protocol.name(), seed, base, gr.roundsExecuted);
  EXPECT_EQ(gr.roundsExecuted, fr.roundsExecuted);
  EXPECT_EQ(gr.totalMoves, fr.totalMoves);
  EXPECT_EQ(gr.recoveredAll, fr.recoveredAll);
  EXPECT_EQ(gr.finalFixpoint, fr.finalFixpoint);
}

// Every SMM choice-policy pair exercises a distinct select() branch in the
// flat kernel (including Successor's wrap-around disjunct and Random's
// roundKey-derived draw).
const Choice kChoices[] = {Choice::MinId, Choice::MaxId, Choice::First,
                           Choice::Successor, Choice::Random};

// ---- serial executor ----------------------------------------------------

TEST(KernelDifferential, SmmAllPoliciesDense) {
  const std::size_t iters = stressIters(4);
  std::uint64_t seed = 10'000;
  for (const Choice propose : kChoices) {
    for (const Choice accept : kChoices) {
      const core::SmmProtocol smm(propose, accept);
      for (std::size_t i = 0; i < iters; ++i) {
        checkKernel<PointerState>(smm, core::wildPointerState,
                                  Schedule::Dense, seed++);
      }
    }
  }
}

TEST(KernelDifferential, SmmAllPoliciesActive) {
  const std::size_t iters = stressIters(4);
  std::uint64_t seed = 20'000;
  for (const Choice propose : kChoices) {
    for (const Choice accept : kChoices) {
      const core::SmmProtocol smm(propose, accept);
      for (std::size_t i = 0; i < iters; ++i) {
        checkKernel<PointerState>(smm, core::wildPointerState,
                                  Schedule::Active, seed++);
      }
    }
  }
}

TEST(KernelDifferential, SisBothSenioritiesDense) {
  const std::size_t iters = stressIters(24);
  std::uint64_t seed = 30'000;
  for (const Seniority s : {Seniority::LargerIdWins, Seniority::SmallerIdWins}) {
    const core::SisProtocol sis(s);
    for (std::size_t i = 0; i < iters; ++i) {
      checkKernel<BitState>(sis, core::randomBitState, Schedule::Dense,
                            seed++);
    }
  }
}

TEST(KernelDifferential, SisBothSenioritiesActive) {
  const std::size_t iters = stressIters(24);
  std::uint64_t seed = 40'000;
  for (const Seniority s : {Seniority::LargerIdWins, Seniority::SmallerIdWins}) {
    const core::SisProtocol sis(s);
    for (std::size_t i = 0; i < iters; ++i) {
      checkKernel<BitState>(sis, core::randomBitState, Schedule::Active,
                            seed++);
    }
  }
}

// Synchronized wrappers must NOT match the kernel factory: their state
// carries scheduling fields the flat mirrors don't model.
TEST(KernelDifferential, WrappedProtocolsHaveNoKernel) {
  const core::Synchronized<core::SmmProtocol> hh(Choice::First, Choice::First);
  const Graph g = graph::path(4);
  const IdAssignment ids = IdAssignment::identity(4);
  EXPECT_EQ(core::makeFlatKernel<PointerState>(hh, g, ids), nullptr);
  EXPECT_EQ(core::makeViewKernel<PointerState>(hh), nullptr);

  const core::SmmProtocol smm = core::smmPaper();
  const core::SisProtocol sis;
  EXPECT_NE(core::makeFlatKernel<PointerState>(smm, g, ids), nullptr);
  EXPECT_NE(core::makeFlatKernel<BitState>(sis, g, ids), nullptr);
  EXPECT_NE(core::makeViewKernel<PointerState>(smm), nullptr);
  EXPECT_NE(core::makeViewKernel<BitState>(sis), nullptr);
}

// Topology churn through the runner's shared graph reference, with
// isFixpoint/enabledVertices read right after each edit, before the
// kernel's next sync(): caches derived from the topology (SisKernel's
// bigger-neighbor slices, SmmKernel's verified pointers) must notice the
// edit through Graph::version() at that sync().
template <typename State, typename Sampler>
void checkTopologyChurn(const engine::Protocol<State>& protocol,
                        Sampler sampler, Schedule schedule,
                        std::uint64_t seed) {
  graph::Rng rng(91'000 + seed);
  Graph g = graph::connectedErdosRenyi(24, 0.15, rng);
  const IdAssignment ids = makeIds(g, seed, rng);
  auto genericStates = engine::randomConfiguration<State>(g, rng, sampler);
  auto flatStates = genericStates;
  SyncRunner<State> generic(protocol, g, ids, seed, schedule);
  SyncRunner<State> flat(protocol, g, ids, seed, schedule);
  attachFlat(flat, protocol, g, ids);
  for (std::size_t r = 0; r < 40; ++r) {
    if (r == 5 || r == 17 || r == 29) {
      engine::perturbTopology(g, rng, 4, /*keepConnected=*/false);
      ASSERT_EQ(generic.isFixpoint(genericStates),
                flat.isFixpoint(flatStates))
          << label(protocol.name(), seed, g, r);
      ASSERT_EQ(generic.enabledVertices(genericStates),
                flat.enabledVertices(flatStates))
          << label(protocol.name(), seed, g, r);
    }
    const std::size_t gm = generic.step(genericStates);
    const std::size_t fm = flat.step(flatStates);
    ASSERT_EQ(gm, fm) << label(protocol.name(), seed, g, r);
    ASSERT_TRUE(genericStates == flatStates)
        << label(protocol.name(), seed, g, r);
  }
}

TEST(KernelDifferential, TopologyChurnRefreshesMirror) {
  const core::SisProtocol sis;
  const core::SmmProtocol smm = core::smmPaper();
  for (std::uint64_t seed = 0; seed < stressIters(8); ++seed) {
    for (const Schedule schedule : {Schedule::Dense, Schedule::Active}) {
      checkTopologyChurn<BitState>(sis, core::randomBitState, schedule, seed);
      checkTopologyChurn<PointerState>(smm, core::wildPointerState, schedule,
                                       seed);
    }
  }
}

// Chaos template plans (crash storms, rolling partitions, churn) drive edge
// masking, frozen nodes, and state corruption through both paths.
TEST(KernelDifferential, ChaosCampaignSmm) {
  const core::SmmProtocol smm = core::smmPaper();
  const std::size_t iters = stressIters(6);
  const char* templates[] = {"churn", "crash-storm", "rolling-partition"};
  std::uint64_t seed = 50'000;
  for (const char* t : templates) {
    for (std::size_t i = 0; i < iters; ++i) {
      checkChaosCampaign<PointerState>(smm, core::wildPointerState, t, seed++);
    }
  }
}

TEST(KernelDifferential, ChaosCampaignSis) {
  const core::SisProtocol sis;
  const std::size_t iters = stressIters(6);
  const char* templates[] = {"churn", "crash-storm", "rolling-partition"};
  std::uint64_t seed = 60'000;
  for (const char* t : templates) {
    for (std::size_t i = 0; i < iters; ++i) {
      checkChaosCampaign<BitState>(sis, core::randomBitState, t, seed++);
    }
  }
}

// Beacon simulator with the view-level kernel tier: bit-identical states
// and stats against the protocol-object path under loss and both schedules.
TEST(KernelDifferential, SimulatorViewKernel) {
  const std::size_t iters = stressIters(8);
  for (std::uint64_t seed = 0; seed < iters; ++seed) {
    graph::Rng rng(70'000 + seed);
    const std::size_t nodes = 10 + rng.below(30);
    adhoc::NetworkConfig config;
    config.seed = seed;
    config.radius = 0.3 + 0.2 * rng.real();
    config.lossProbability = (seed % 3 == 0) ? 0.1 : 0.0;
    config.schedule =
        (seed % 2 == 0) ? Schedule::Dense : Schedule::Active;
    const IdAssignment ids = IdAssignment::identity(nodes);
    const auto points = graph::randomPoints(nodes, rng);

    const core::SisProtocol sis;
    const auto kernel = core::makeViewKernel<BitState>(sis);
    ASSERT_NE(kernel, nullptr);

    adhoc::StaticPlacement mobilityA(points);
    adhoc::StaticPlacement mobilityB(points);
    adhoc::NetworkConfig configB = config;
    adhoc::NetworkSimulator<BitState> generic(sis, ids, mobilityA, config);
    adhoc::NetworkSimulator<BitState> flat(sis, ids, mobilityB, configB);
    flat.setViewKernel(kernel.get());
    EXPECT_EQ(flat.kernel(), engine::Kernel::Flat);
    EXPECT_EQ(generic.kernel(), engine::Kernel::Generic);

    for (int chunk = 1; chunk <= 10; ++chunk) {
      const adhoc::SimTime t = chunk * 5 * config.beaconInterval;
      generic.run(t);
      flat.run(t);
      ASSERT_TRUE(generic.states() == flat.states())
          << "seed " << seed << " t " << t;
      ASSERT_EQ(generic.stats().moves, flat.stats().moves)
          << "seed " << seed << " t " << t;
    }
  }
}

// ---- worker pool (threads = 4) -------------------------------------------

TEST(KernelDifferentialParallel, SmmAllPolicies) {
  const std::size_t iters = stressIters(2);
  std::uint64_t seed = 80'000;
  for (const Choice propose : kChoices) {
    for (const Choice accept : kChoices) {
      const core::SmmProtocol smm(propose, accept);
      for (std::size_t i = 0; i < iters; ++i) {
        for (const Schedule schedule : {Schedule::Dense, Schedule::Active}) {
          checkKernel<PointerState>(smm, core::wildPointerState, schedule,
                                    seed, 4);
        }
        ++seed;
      }
    }
  }
}

TEST(KernelDifferentialParallel, SisBothSeniorities) {
  const std::size_t iters = stressIters(12);
  std::uint64_t seed = 90'000;
  for (const Seniority s : {Seniority::LargerIdWins, Seniority::SmallerIdWins}) {
    const core::SisProtocol sis(s);
    for (std::size_t i = 0; i < iters; ++i) {
      for (const Schedule schedule : {Schedule::Dense, Schedule::Active}) {
        checkKernel<BitState>(sis, core::randomBitState, schedule, seed, 4);
      }
      ++seed;
    }
  }
}

TEST(KernelDifferentialParallel, ChaosCampaign) {
  const core::SmmProtocol smm = core::smmPaper();
  const std::size_t iters = stressIters(4);
  std::uint64_t seed = 95'000;
  for (std::size_t i = 0; i < iters; ++i) {
    checkChaosCampaign<PointerState>(smm, core::wildPointerState, "churn",
                                     seed++, 4);
  }
}

}  // namespace
}  // namespace selfstab

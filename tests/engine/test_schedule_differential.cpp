// Property-based differential harness for the work-set executor.
//
// Its whole claim is semantic transparency: for every protocol, graph, ID
// order, seed, and (arbitrary, possibly corrupt) initial configuration, the
// adaptive Dense executor and the list-only Active mode must produce the
// SAME trajectory as the Sweep oracle — identical per-round state vectors,
// identical per-round move counts, identical RunResult — at threads = 1 and
// on the worker pool.
// This suite hammers that claim with randomized combinations over every
// registered protocol in src/core/ and fails with a replayable seed.
//
// Iteration count scales with the SELFSTAB_STRESS_ITERS env var (per-protocol
// iterations; default keeps the whole suite in the hundreds of combinations).
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/bfs_tree.hpp"
#include "core/coloring.hpp"
#include "core/dominating_set.hpp"
#include "core/leader_tree.hpp"
#include "core/local_mutex.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"

namespace selfstab {
namespace {

using engine::Schedule;
using engine::SyncRunner;
using graph::Graph;
using graph::IdAssignment;
using graph::Vertex;

// Per-protocol iteration count; SELFSTAB_STRESS_ITERS overrides so CI can
// dial stress up (nightly) or down (sanitizer runs).
std::size_t stressIters(std::size_t fallback) {
  if (const char* env = std::getenv("SELFSTAB_STRESS_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

// Random topology spanning the families the paper's bounds quantify over:
// random (G(n,p), geometric) plus the structured corner cases (path, star,
// clique, cycle, tree) that historically break dirty-set bookkeeping (leaf
// explosions in stars, all-to-all invalidation in cliques, long dependency
// chains in paths).
Graph makeGraph(std::size_t family, graph::Rng& rng) {
  switch (family % 7) {
    case 0:
      return graph::connectedErdosRenyi(8 + rng.below(25), 0.15, rng);
    case 1:
      return graph::connectedRandomGeometric(8 + rng.below(25), 0.35, rng);
    case 2:
      return graph::path(1 + rng.below(24));
    case 3:
      return graph::star(2 + rng.below(24));
    case 4:
      return graph::complete(2 + rng.below(12));
    case 5:
      return graph::cycle(3 + rng.below(20));
    default:
      return graph::randomTree(2 + rng.below(25), rng);
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

template <typename State>
std::string label(std::string_view protocol, std::uint64_t seed,
                  const Graph& g, std::size_t round) {
  std::ostringstream ss;
  ss << protocol << " seed=" << seed << " n=" << g.order()
     << " m=" << g.size() << " round=" << round
     << " (replay: SELFSTAB_STRESS_ITERS + this seed)";
  return ss.str();
}

// Lockstep comparison: same start, a threads = 1 reference on the Sweep
// oracle (every node, every round) plus one Dense and one Active runner at
// `threads`, stepping together. Also asserts RunResult parity from fresh
// runners over the same start.
template <typename State, typename Sampler>
void checkSchedules(const engine::Protocol<State>& protocol, Sampler sampler,
                    std::uint64_t seed, std::size_t threads = 1) {
  graph::Rng rng(seed);
  const Graph g = makeGraph(static_cast<std::size_t>(seed), rng);
  const IdAssignment ids = makeIds(g, seed / 7, rng);
  const auto start = engine::randomConfiguration<State>(g, rng, sampler);
  const std::size_t maxRounds = 4 * g.order() + 8;

  SyncRunner<State> reference(protocol, g, ids, seed, Schedule::Sweep);
  SyncRunner<State> dense(protocol, g, ids, seed, Schedule::Dense, threads);
  SyncRunner<State> active(protocol, g, ids, seed, Schedule::Active, threads);
  auto refStates = start;
  auto denseStates = start;
  auto activeStates = start;
  for (std::size_t r = 0; r < maxRounds; ++r) {
    const std::size_t rm = reference.step(refStates);
    const std::size_t dm = dense.step(denseStates);
    const std::size_t am = active.step(activeStates);
    ASSERT_EQ(rm, dm) << label<State>(protocol.name(), seed, g, r);
    ASSERT_EQ(rm, am) << label<State>(protocol.name(), seed, g, r);
    ASSERT_TRUE(refStates == denseStates)
        << label<State>(protocol.name(), seed, g, r);
    ASSERT_TRUE(refStates == activeStates)
        << label<State>(protocol.name(), seed, g, r);
    if (rm == 0 && reference.isFixpoint(refStates)) break;
  }

  auto ds = start;
  auto as = start;
  SyncRunner<State> dense2(protocol, g, ids, seed, Schedule::Dense);
  SyncRunner<State> active2(protocol, g, ids, seed, Schedule::Active, threads);
  const engine::RunResult dr = dense2.run(ds, maxRounds);
  const engine::RunResult ar = active2.run(as, maxRounds);
  EXPECT_TRUE(dr == ar) << label<State>(protocol.name(), seed, g, dr.rounds);
  EXPECT_TRUE(ds == as) << label<State>(protocol.name(), seed, g, dr.rounds);
}

// Mid-run fault bursts: corrupt both trajectories identically (same Rng
// stream) and reschedule; the active runner must absorb the invalidation
// and stay bit-identical through recovery.
template <typename State, typename Sampler>
void checkSerialWithFaults(const engine::Protocol<State>& protocol,
                           Sampler sampler, std::uint64_t seed) {
  graph::Rng rng(seed);
  const Graph g = makeGraph(static_cast<std::size_t>(seed), rng);
  const IdAssignment ids = makeIds(g, seed / 7, rng);
  auto denseStates = engine::randomConfiguration<State>(g, rng, sampler);
  auto activeStates = denseStates;
  const std::size_t maxRounds = 4 * g.order() + 8;

  SyncRunner<State> dense(protocol, g, ids, seed, Schedule::Dense);
  SyncRunner<State> active(protocol, g, ids, seed, Schedule::Active);
  for (std::size_t r = 0; r < maxRounds; ++r) {
    if (r == g.order() / 2 + 1) {
      // One burst, replayed onto both trajectories from identical Rng state
      // so the corrupted configurations match.
      graph::Rng faultRngA(seed ^ 0xfau);
      graph::Rng faultRngB(seed ^ 0xfau);
      engine::corruptAndReschedule(dense, denseStates, g, faultRngA, 0.4,
                                   sampler);
      engine::corruptAndReschedule(active, activeStates, g, faultRngB, 0.4,
                                   sampler);
      ASSERT_TRUE(denseStates == activeStates);
    }
    const std::size_t dm = dense.step(denseStates);
    const std::size_t am = active.step(activeStates);
    ASSERT_EQ(dm, am) << label<State>(protocol.name(), seed, g, r);
    ASSERT_TRUE(denseStates == activeStates)
        << label<State>(protocol.name(), seed, g, r);
  }
}

// ---- per-protocol drivers ----------------------------------------------

TEST(ScheduleDifferential, SmmPaperSerial) {
  const core::SmmProtocol smm = core::smmPaper();
  const std::size_t iters = stressIters(28);
  for (std::size_t i = 0; i < iters; ++i) {
    checkSchedules<core::PointerState>(smm, core::wildPointerState, 1000 + i);
  }
}

TEST(ScheduleDifferential, SmmArbitrarySerial) {
  // The broken successor-choice variant livelocks on odd cycles — exactly
  // the kind of perpetual-motion trajectory whose dirty set never drains.
  const core::SmmProtocol broken = core::smmArbitrary();
  const std::size_t iters = stressIters(28);
  for (std::size_t i = 0; i < iters; ++i) {
    checkSchedules<core::PointerState>(broken, core::wildPointerState,
                                       2000 + i);
  }
}

TEST(ScheduleDifferential, SisSerial) {
  const core::SisProtocol sis;
  const std::size_t iters = stressIters(28);
  for (std::size_t i = 0; i < iters; ++i) {
    checkSchedules<core::BitState>(sis, core::randomBitState, 3000 + i);
  }
}

TEST(ScheduleDifferential, ColoringSerial) {
  const core::ColoringProtocol coloring;
  const std::size_t iters = stressIters(28);
  for (std::size_t i = 0; i < iters; ++i) {
    checkSchedules<core::ColorState>(coloring, core::randomColorState,
                                     4000 + i);
  }
}

TEST(ScheduleDifferential, BfsTreeSerial) {
  const std::size_t iters = stressIters(28);
  for (std::size_t i = 0; i < iters; ++i) {
    // Root at ID 0 under identity/reversed orders; under random orders some
    // other vertex holds it — either way the protocol must agree with dense.
    const core::BfsTreeProtocol bfs(0, 64);
    checkSchedules<core::TreeState>(bfs, core::randomTreeState, 5000 + i);
  }
}

TEST(ScheduleDifferential, LeaderTreeSerial) {
  const std::size_t iters = stressIters(28);
  for (std::size_t i = 0; i < iters; ++i) {
    const core::LeaderTreeProtocol leader(64);
    checkSchedules<core::LeaderState>(leader, core::randomLeaderState,
                                      6000 + i);
  }
}

TEST(ScheduleDifferential, DominatingSetSynchronizedSerial) {
  // Synchronized wrappers draw per-round lottery priorities from roundKey:
  // readsBeyondNeighborhood() makes the executor evaluate everything each
  // round, which must STILL be bit-identical with the oracle (it keeps the
  // mirror hot through apply() instead of reloading it).
  const core::Synchronized<core::DominatingSetProtocol> domset;
  const std::size_t iters = stressIters(28);
  for (std::size_t i = 0; i < iters; ++i) {
    checkSchedules<core::DomState>(domset, core::randomDomState, 7000 + i);
  }
}

TEST(ScheduleDifferential, HsuHuangSynchronizedSerial) {
  const core::Synchronized<core::SmmProtocol> hh(core::Choice::First,
                                                 core::Choice::First);
  const std::size_t iters = stressIters(28);
  for (std::size_t i = 0; i < iters; ++i) {
    checkSchedules<core::PointerState>(hh, core::wildPointerState, 8000 + i);
  }
}

TEST(ScheduleDifferential, FaultInjectionSerial) {
  const core::SmmProtocol smm = core::smmPaper();
  const core::SisProtocol sis;
  const std::size_t iters = stressIters(16);
  for (std::size_t i = 0; i < iters; ++i) {
    checkSerialWithFaults<core::PointerState>(smm, core::wildPointerState,
                                              9000 + i);
    checkSerialWithFaults<core::BitState>(sis, core::randomBitState,
                                          9500 + i);
  }
}

// ---- worker pool (threads = 4) -------------------------------------------

TEST(ScheduleDifferentialParallel, SmmPaper) {
  const core::SmmProtocol smm = core::smmPaper();
  const std::size_t iters = stressIters(10);
  for (std::size_t i = 0; i < iters; ++i) {
    checkSchedules<core::PointerState>(smm, core::wildPointerState,
                                       1100 + i, 4);
  }
}

TEST(ScheduleDifferentialParallel, SmmArbitrary) {
  const core::SmmProtocol broken = core::smmArbitrary();
  const std::size_t iters = stressIters(10);
  for (std::size_t i = 0; i < iters; ++i) {
    checkSchedules<core::PointerState>(broken, core::wildPointerState,
                                       2100 + i, 4);
  }
}

TEST(ScheduleDifferentialParallel, Sis) {
  const core::SisProtocol sis;
  const std::size_t iters = stressIters(10);
  for (std::size_t i = 0; i < iters; ++i) {
    checkSchedules<core::BitState>(sis, core::randomBitState, 3100 + i, 4);
  }
}

TEST(ScheduleDifferentialParallel, Coloring) {
  const core::ColoringProtocol coloring;
  const std::size_t iters = stressIters(10);
  for (std::size_t i = 0; i < iters; ++i) {
    checkSchedules<core::ColorState>(coloring, core::randomColorState,
                                    4100 + i, 4);
  }
}

TEST(ScheduleDifferentialParallel, BfsTree) {
  const std::size_t iters = stressIters(10);
  for (std::size_t i = 0; i < iters; ++i) {
    const core::BfsTreeProtocol bfs(0, 64);
    checkSchedules<core::TreeState>(bfs, core::randomTreeState, 5100 + i, 4);
  }
}

TEST(ScheduleDifferentialParallel, LeaderTree) {
  const std::size_t iters = stressIters(10);
  for (std::size_t i = 0; i < iters; ++i) {
    const core::LeaderTreeProtocol leader(64);
    checkSchedules<core::LeaderState>(leader, core::randomLeaderState,
                                      6100 + i, 4);
  }
}

TEST(ScheduleDifferentialParallel, DominatingSetSynchronized) {
  const core::Synchronized<core::DominatingSetProtocol> domset;
  const std::size_t iters = stressIters(10);
  for (std::size_t i = 0; i < iters; ++i) {
    checkSchedules<core::DomState>(domset, core::randomDomState, 7100 + i, 4);
  }
}

TEST(ScheduleDifferentialParallel, HsuHuangSynchronized) {
  const core::Synchronized<core::SmmProtocol> hh(core::Choice::First,
                                                 core::Choice::First);
  const std::size_t iters = stressIters(10);
  for (std::size_t i = 0; i < iters; ++i) {
    checkSchedules<core::PointerState>(hh, core::wildPointerState, 8100 + i,
                                       4);
  }
}

// Topology churn through the runner's own graph reference is detected via
// Graph::version() without an explicit invalidateSchedule() call.
TEST(ScheduleDifferential, TopologyChurnAutoInvalidates) {
  const core::SisProtocol sis;
  for (std::uint64_t seed = 0; seed < stressIters(8); ++seed) {
    graph::Rng rng(90000 + seed);
    Graph g = graph::connectedErdosRenyi(20, 0.15, rng);
    const IdAssignment ids = IdAssignment::identity(g.order());
    auto denseStates = engine::randomConfiguration<core::BitState>(
        g, rng, core::randomBitState);
    auto activeStates = denseStates;
    SyncRunner<core::BitState> dense(sis, g, ids, seed, Schedule::Dense);
    SyncRunner<core::BitState> active(sis, g, ids, seed, Schedule::Active);
    for (std::size_t r = 0; r < 40; ++r) {
      if (r == 5 || r == 17) {
        engine::perturbTopology(g, rng, 4, /*keepConnected=*/false);
      }
      const std::size_t dm = dense.step(denseStates);
      const std::size_t am = active.step(activeStates);
      ASSERT_EQ(dm, am) << "seed " << seed << " round " << r;
      ASSERT_TRUE(denseStates == activeStates)
          << "seed " << seed << " round " << r;
    }
  }
}

}  // namespace
}  // namespace selfstab

// Regression tests for SmmKernel's verified-pointer cache.
//
// The kernel skips the membership search for p(i) when p(i) equals the
// value it last verified (or chose) at the current Graph::version().
// Each test below first lets pointers get verified, then invalidates that
// knowledge the three ways a run can: a topology change removing the
// pointer's edge, an external state edit that aims pointers at
// non-neighbors, and a pinned node whose reverted pointer the kernel never
// chose. The flat kernel must keep matching the generic LocalView path
// round for round, under both schedules and at threads 1 and 3.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "core/kernels.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"

namespace selfstab::core {
namespace {

using engine::Schedule;
using engine::SyncRunner;
using graph::Graph;
using graph::IdAssignment;
using graph::Vertex;

// (node, new pointer) state edits, applied to both trajectories.
using PointerEdits = std::vector<std::pair<Vertex, Vertex>>;

// Called before each round with the round number, whether the previous
// round ended at a fixpoint, and the states. May edit the shared graph.
using Edit = std::function<PointerEdits(std::size_t round, bool fixpoint,
                                        const std::vector<PointerState>&)>;

// Lockstep: the generic path at threads = 1 against SmmKernel at `threads`,
// over one shared graph, stopping after `rounds` rounds.
void lockstep(Graph& g, const IdAssignment& ids, Schedule schedule,
              std::size_t threads, std::uint64_t seed, std::size_t rounds,
              const Edit& edit) {
  const SmmProtocol smm = smmPaper();
  graph::Rng rng(seed);
  auto genericStates = engine::randomConfiguration<PointerState>(
      g, rng, randomPointerState);
  auto flatStates = genericStates;
  SyncRunner<PointerState> generic(smm, g, ids, seed, schedule);
  SyncRunner<PointerState> flat(smm, g, ids, seed, schedule, threads);
  flat.setKernel(makeFlatKernel<PointerState>(smm, g, ids));
  ASSERT_EQ(flat.kernel(), engine::Kernel::Flat);

  bool fixpoint = false;
  for (std::size_t r = 0; r < rounds; ++r) {
    const PointerEdits edits = edit(r, fixpoint, genericStates);
    for (const auto& [v, ptr] : edits) {
      genericStates[v].ptr = ptr;
      flatStates[v].ptr = ptr;
    }
    if (!edits.empty()) {
      generic.invalidateSchedule();
      flat.invalidateSchedule();
    }
    const std::size_t gm = generic.step(genericStates);
    const std::size_t fm = flat.step(flatStates);
    ASSERT_EQ(gm, fm) << "seed " << seed << " round " << r;
    ASSERT_TRUE(genericStates == flatStates) << "seed " << seed << " round "
                                             << r;
    fixpoint = gm == 0 && generic.isFixpoint(genericStates);
    ASSERT_EQ(fixpoint, gm == 0 && flat.isFixpoint(flatStates));
  }
}

template <typename Body>
void forEachExecutor(Body body) {
  for (const Schedule schedule : {Schedule::Dense, Schedule::Active}) {
    for (const std::size_t threads : {1U, 3U}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(testing::Message()
                     << "schedule " << engine::toString(schedule)
                     << " threads " << threads << " seed " << seed);
        body(schedule, threads, seed);
      }
    }
  }
}

Graph makeGraph(std::uint64_t seed) {
  graph::Rng rng(seed * 977);
  return graph::connectedRandomGeometric(48, 0.3, rng);
}

// A matched pair's pointers were verified when they were chosen. Removing
// the pair's edge bumps Graph::version(): both must see a dangling
// pointer and back off, even though each still points at a partner that
// points back.
TEST(SmmPointerCache, RemovingAVerifiedEdgeDropsThePointer) {
  forEachExecutor([](Schedule schedule, std::size_t threads,
                     std::uint64_t seed) {
    Graph g = makeGraph(seed);
    const auto ids = IdAssignment::identity(g.order());
    std::size_t removed = 0;
    lockstep(g, ids, schedule, threads, seed, 6 * g.order(),
             [&](std::size_t, bool fixpoint,
                 const std::vector<PointerState>& states) -> PointerEdits {
               if (!fixpoint || removed == 3) return {};
               for (Vertex v = 0; v < g.order(); ++v) {
                 const Vertex u = states[v].ptr;
                 if (u != graph::kNoVertex && states[u].ptr == v) {
                   g.removeEdge(v, u);
                   ++removed;
                   break;
                 }
               }
               return {};
             });
    EXPECT_EQ(removed, 3U);
  });
}

// At a fixpoint every pointer is verified. An external edit then aims two
// non-adjacent nodes at each other: each pointer is a non-neighbor the
// cache never saw, and the target points back, so only the membership
// search makes them back off.
TEST(SmmPointerCache, ExternalEditToANonNeighborIsChecked) {
  forEachExecutor([](Schedule schedule, std::size_t threads,
                     std::uint64_t seed) {
    Graph g = makeGraph(seed);
    graph::Rng idRng(seed);
    const auto ids = IdAssignment::randomPermutation(g.order(), idRng);
    std::size_t edits = 0;
    lockstep(g, ids, schedule, threads, seed, 6 * g.order(),
             [&](std::size_t, bool fixpoint,
                 const std::vector<PointerState>&) -> PointerEdits {
               if (!fixpoint || edits == 3) return {};
               for (Vertex a = static_cast<Vertex>(edits); a < g.order(); ++a) {
                 for (Vertex b = a + 1; b < g.order(); ++b) {
                   if (g.hasEdge(a, b)) continue;
                   ++edits;
                   return {{a, b}, {b, a}};
                 }
               }
               return {};
             });
    EXPECT_EQ(edits, 3U);
  });
}

// A stuck node is reverted to its pinned pointer after every round, so the
// value the kernel last chose or verified for it is not the one it holds.
// The pin starts on a neighbor whose edge is later removed, then moves to
// a non-neighbor.
TEST(SmmPointerCache, PinnedNodeKeepsMatchingTheGenericPath) {
  forEachExecutor([](Schedule schedule, std::size_t threads,
                     std::uint64_t seed) {
    Graph g = makeGraph(seed);
    const auto ids = IdAssignment::identity(g.order());
    const Vertex stuck = static_cast<Vertex>(seed % g.order());
    const Vertex nbr = g.neighbors(stuck).front();
    Vertex far = 0;
    while (far == stuck || g.hasEdge(stuck, far)) ++far;
    lockstep(g, ids, schedule, threads, seed, 4 * g.order(),
             [&](std::size_t r, bool,
                 const std::vector<PointerState>& states) -> PointerEdits {
               if (r == g.order()) g.removeEdge(stuck, nbr);
               const Vertex pin = r < 2 * g.order() ? nbr : far;
               if (states[stuck].ptr == pin) return {};
               return {{stuck, pin}};
             });
  });
}

}  // namespace
}  // namespace selfstab::core

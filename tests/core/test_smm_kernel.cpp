// SmmKernel against the generic LocalView path, round for round.
//
// SmmPointerCache: the kernel skips the membership search for p(i) when
// p(i) equals the value it last verified (or chose) at the current
// Graph::version(). Each test first lets pointers get verified, then
// invalidates that knowledge the three ways a run can: a topology change
// removing the pointer's edge, an external state edit that aims pointers
// at non-neighbors, and a pinned node whose reverted pointer the kernel
// never chose.
//
// SmmKeyPath: the kernel evaluates in sub-blocks of 256 vertices, picks
// each null node's neighbor as one minimum over packed (class, ID, slot)
// keys, and emits moves through a compaction. Its cases run graphs of
// several sub-blocks (n not a multiple of 256), every policy pair, IDs at
// the edge of the keys' 31-bit field, sparse 64-bit IDs (ranked keys),
// labelled space-order unit-disk graphs and wild and dangling pointers.
//
// The lockstep cases run under both schedules. SmmKeyPath cases run at
// one thread, SmmKeyPathParallel cases at three (sync() at widths 1 and
// 3), and SmmPointerCache cases at both. Each round the moved vertices, as
// SyncRunner::forEachMoved yields them, must ascend and equal the generic
// path's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/kernels.hpp"
#include "core/matching_state.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"
#include "graph/geometry.hpp"

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

using Sampler = PointerState (*)(Vertex, const Graph&, graph::Rng&);

std::vector<Vertex> movedVertices(const SyncRunner<PointerState>& runner) {
  std::vector<Vertex> moved;
  runner.forEachMoved([&](Vertex v) { moved.push_back(v); });
  return moved;
}

// Lockstep: the generic path at threads = 1 against SmmKernel at `threads`,
// over one shared graph, for `rounds` rounds (or, with stopAtFixpoint,
// until the first quiet fixpoint round), from a start drawn by `sampler`.
void lockstep(const SmmProtocol& smm, Graph& g, const IdAssignment& ids,
              Schedule schedule, std::size_t threads, std::uint64_t seed,
              std::size_t rounds, const Edit& edit,
              Sampler sampler = randomPointerState,
              bool stopAtFixpoint = false) {
  graph::Rng rng(seed);
  auto genericStates =
      engine::randomConfiguration<PointerState>(g, rng, sampler);
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
    const std::vector<Vertex> moved = movedVertices(flat);
    ASSERT_TRUE(std::is_sorted(moved.begin(), moved.end()) &&
                std::adjacent_find(moved.begin(), moved.end()) == moved.end())
        << "moves must leave in ascending vertex order, round " << r;
    ASSERT_EQ(moved, movedVertices(generic)) << "round " << r;
    fixpoint = gm == 0 && generic.isFixpoint(genericStates);
    ASSERT_EQ(fixpoint, gm == 0 && flat.isFixpoint(flatStates));
    if (fixpoint && stopAtFixpoint) return;
  }
}

void lockstep(Graph& g, const IdAssignment& ids, Schedule schedule,
              std::size_t threads, std::uint64_t seed, std::size_t rounds,
              const Edit& edit) {
  lockstep(smmPaper(), g, ids, schedule, threads, seed, rounds, edit);
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

// ---- The key path --------------------------------------------------------

const Choice kChoices[] = {Choice::MinId, Choice::MaxId, Choice::First,
                           Choice::Successor, Choice::Random};

PointerEdits noEdits(std::size_t, bool, const std::vector<PointerState>&) {
  return {};
}

// 700 = 2 × 256 + 188 vertices: two full sub-blocks and a partial one.
Graph multiBlockGraph(std::uint64_t seed) {
  graph::Rng rng(seed * 7919);
  return graph::connectedRandomGeometric(700, 0.07, rng);
}

// Every policy pair from wild starts, over the sub-block sweep (Dense) and
// long work lists (Active), until the generic path reaches a fixpoint or
// the round budget runs out (several pairs never stabilize).
void allPolicyPairs(std::size_t threads) {
  for (const Schedule schedule : {Schedule::Dense, Schedule::Active}) {
    std::uint64_t seed = 1;
    for (const Choice propose : kChoices) {
      for (const Choice accept : kChoices) {
        SCOPED_TRACE(testing::Message()
                     << toString(propose) << "/" << toString(accept) << " "
                     << engine::toString(schedule));
        Graph g = multiBlockGraph(seed);
        graph::Rng idRng(seed);
        const auto ids = IdAssignment::randomPermutation(g.order(), idRng);
        lockstep(SmmProtocol(propose, accept), g, ids, schedule, threads,
                 seed++, 48, noEdits, wildPointerState,
                 /*stopAtFixpoint=*/true);
      }
    }
  }
}

TEST(SmmKeyPath, AllPolicyPairs) { allPolicyPairs(1); }

TEST(SmmKeyPathParallel, AllPolicyPairs) { allPolicyPairs(3); }

// IDs that fill the keys' 31-bit field are keys themselves; one ID past it
// switches the kernel to ranks. Both must choose as the generic path does,
// under the ID-reading policies.
TEST(SmmKeyPath, IdsAtThe31BitEdge) {
  constexpr graph::Id kTop = (graph::Id{1} << 31) - 1;
  Graph g = multiBlockGraph(3);
  graph::Rng idRng(3);
  const auto perm = IdAssignment::randomPermutation(g.order(), idRng);
  IdAssignment::Ids narrow(g.order());
  IdAssignment::Ids wide(g.order());
  for (Vertex v = 0; v < g.order(); ++v) {
    // ID 0, the middle of the range, and the top of the field (or one past).
    const graph::Id id = perm.idOf(v);
    narrow[v] = id + 1 == g.order() ? kTop : id * (kTop / g.order());
    wide[v] = id + 1 == g.order() ? kTop + 1 : narrow[v];
  }
  const IdAssignment narrowIds(std::move(narrow));
  const IdAssignment wideIds(std::move(wide));
  ASSERT_TRUE(narrowIds.isValid(g.order()) && wideIds.isValid(g.order()));
  EXPECT_FALSE(SmmKernel(g, narrowIds, Choice::MinId, Choice::MinId)
                   .ranksIds());
  EXPECT_TRUE(SmmKernel(g, wideIds, Choice::MinId, Choice::MinId).ranksIds());
  std::uint64_t seed = 40;
  for (const IdAssignment* ids : {&narrowIds, &wideIds}) {
    for (const Choice propose : {Choice::MinId, Choice::MaxId}) {
      for (const Choice accept : {Choice::MinId, Choice::MaxId}) {
        for (const Schedule schedule : {Schedule::Dense, Schedule::Active}) {
          SCOPED_TRACE(testing::Message()
                       << (ids == &wideIds ? "ranked " : "direct ")
                       << toString(propose) << "/" << toString(accept) << " "
                       << engine::toString(schedule));
          lockstep(SmmProtocol(propose, accept), g, *ids, schedule, 1,
                   seed++, 48, noEdits, wildPointerState,
                   /*stopAtFixpoint=*/true);
        }
      }
    }
  }
}

// IdAssignment::randomSparse draws from all 64 bits: ranked keys.
TEST(SmmKeyPath, RandomSparseIds) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Graph g = multiBlockGraph(seed + 10);
    graph::Rng idRng(seed);
    const auto ids = IdAssignment::randomSparse(g.order(), idRng);
    ASSERT_TRUE(SmmKernel(g, ids, Choice::MinId, Choice::MinId).ranksIds());
    for (const Schedule schedule : {Schedule::Dense, Schedule::Active}) {
      for (const Choice choice : {Choice::MinId, Choice::MaxId}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " "
                                        << toString(choice) << " "
                                        << engine::toString(schedule));
        lockstep(SmmProtocol(choice, choice), g, ids, schedule, 1, seed, 48,
                 noEdits, wildPointerState, /*stopAtFixpoint=*/true);
      }
    }
  }
}

// Labelled space-order unit-disk graphs, as selfstab builds them, with the
// IDs gathered through the labels and the paper's policies.
void labelledSpaceOrder(std::size_t threads) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    graph::Rng rng(seed);
    const std::vector<graph::Point> points = graph::randomPoints(1500, rng);
    Graph g = graph::unitDiskGraph(points, 0.05, graph::VertexOrder::Space);
    ASSERT_TRUE(g.labelled());
    IdAssignment::Ids byLabel(g.order());
    for (Vertex v = 0; v < g.order(); ++v) byLabel[v] = g.labelOf(v);
    const IdAssignment ids(std::move(byLabel));
    for (const Schedule schedule : {Schedule::Dense, Schedule::Active}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " "
                                      << engine::toString(schedule));
      lockstep(smmPaper(), g, ids, schedule, threads, seed, 2 * g.order(),
               noEdits, randomPointerState, /*stopAtFixpoint=*/true);
    }
  }
}

TEST(SmmKeyPath, LabelledSpaceOrderGraphs) { labelledSpaceOrder(1); }

TEST(SmmKeyPathParallel, LabelledSpaceOrderGraphs) { labelledSpaceOrder(3); }

// Wild starts, then every fourth round an edge under a pointer vanishes:
// a dangling pointer in each of several sub-blocks at once.
void danglingPointers(std::size_t threads) {
  for (const Schedule schedule : {Schedule::Dense, Schedule::Active}) {
    SCOPED_TRACE(engine::toString(schedule));
    Graph g = multiBlockGraph(5);
    graph::Rng idRng(5);
    const auto ids = IdAssignment::randomPermutation(g.order(), idRng);
    std::size_t removed = 0;
    lockstep(
        smmPaper(), g, ids, schedule, threads, 5, 64,
        [&](std::size_t r, bool,
            const std::vector<PointerState>& states) -> PointerEdits {
          if (r % 4 != 3) return {};
          for (Vertex v = static_cast<Vertex>(r); v < g.order(); v += 97) {
            const Vertex u = states[v].ptr;
            if (u != graph::kNoVertex && g.hasEdge(v, u)) {
              g.removeEdge(v, u);
              ++removed;
            }
          }
          return {};
        },
        wildPointerState);
    EXPECT_GT(removed, 10U);
  }
}

TEST(SmmKeyPath, DanglingPointers) { danglingPointers(1); }

TEST(SmmKeyPathParallel, DanglingPointers) { danglingPointers(3); }

// sync() reloads the mirror and diffs it on the team, one changed list per
// block joined in block order: the edited slots, ascending, at every
// width, over a graph of many sync blocks.
TEST(SmmKeyPathParallel, SyncListsChangedSlotsInOrder) {
  const Graph g = graph::cycle(50'000);
  const auto ids = IdAssignment::identity(g.order());
  graph::Rng rng(11);
  auto states =
      engine::randomConfiguration<PointerState>(g, rng, wildPointerState);
  for (const std::size_t width : {1U, 3U}) {
    SCOPED_TRACE(width);
    SmmKernel kernel(g, ids, Choice::MinId, Choice::MinId);
    kernel.sync(states, nullptr, width);
    ASSERT_TRUE(kernel.mirrors(states));
    std::vector<Vertex> edited;
    for (Vertex v = static_cast<Vertex>(width); v < g.order();
         v += 1 + static_cast<Vertex>(rng.below(3000))) {
      states[v].ptr = states[v].ptr == 0 ? 1 : 0;
      edited.push_back(v);
    }
    std::vector<Vertex> changed;
    kernel.sync(states, &changed, width);
    EXPECT_EQ(changed, edited);
    EXPECT_TRUE(kernel.mirrors(states));
  }
}

}  // namespace
}  // namespace selfstab::core

// The beacon simulator's window executor against its per-event loop.
//
// NetworkSimulator runs lookahead windows in phases (geometry on the pool,
// serial draws and scheduling, per-node work on the pool, serial emission)
// and claims the per-event loop's trajectory bit for bit at every worker
// count. This suite builds the same scenario under the per-event oracle
// (kPerEventLoop) and under the window executor at 1, 2, 3 and 4 workers,
// and compares NetworkStats, final states, the event-log bytes, IndexStats
// and the final clock. Scenarios cover SMM, SIS and the leader tree; grid
// and scan indexes; calendar and heap queues; static and waypoint hosts
// (with pause legs shorter than a window); per-node radii, loss and
// collisions; chaos crash / rejoin inside a window / partition / drift /
// garble / stuck; runUntilQuiet stopping mid-window; a zero propagation
// delay; and run() called once, once per beacon interval, at odd times, and
// at the last microsecond of a window with broadcasts in flight and a
// ChaosTick on the boundary right after. Iteration count scales with the
// SELFSTAB_STRESS_ITERS env var.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "adhoc/mobility.hpp"
#include "adhoc/network.hpp"
#include "core/leader_tree.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "graph/id_order.hpp"
#include "telemetry/telemetry.hpp"

namespace selfstab::adhoc {
namespace {

std::size_t stressIters(std::size_t fallback) {
  if (const char* env = std::getenv("SELFSTAB_STRESS_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

enum class Slicing { Whole, PerInterval, OddSlices, UntilQuiet, WindowEdges };

struct Scenario {
  std::size_t nodes = 0;
  NetworkConfig config;
  std::vector<graph::Point> start;
  bool waypoint = false;
  RandomWaypoint::Config wp;
  std::uint64_t mobilitySeed = 0;
  SimTime duration = 0;
  Slicing slicing = Slicing::Whole;
  bool chaos = false;

  [[nodiscard]] std::unique_ptr<Mobility> makeMobility() const {
    if (!waypoint) return std::make_unique<StaticPlacement>(start);
    return std::make_unique<RandomWaypoint>(start, wp, mobilitySeed);
  }
};

struct Outcome {
  NetworkStats stats;
  IndexStats index;
  std::vector<std::uint64_t> states;
  std::string events;
  SimTime now = 0;
  bool quiet = false;
};

void expectSame(const Outcome& oracle, const Outcome& got,
                const std::string& what) {
  EXPECT_EQ(got.stats, oracle.stats) << what;
  EXPECT_EQ(got.index, oracle.index) << what;
  EXPECT_EQ(got.states, oracle.states) << what;
  EXPECT_EQ(got.now, oracle.now) << what;
  EXPECT_EQ(got.quiet, oracle.quiet) << what;
  EXPECT_TRUE(got.events == oracle.events)
      << what << ": event logs differ (" << got.events.size() << " vs "
      << oracle.events.size() << " bytes)";
}

/// Aligned window starts a little over two intervals apart: the
/// WindowEdges slicing ends a run() one microsecond before each, with the
/// last window's broadcasts still in flight.
std::vector<SimTime> windowEdges(const Scenario& s) {
  const SimTime d = s.config.propagationDelay;
  std::vector<SimTime> edges;
  for (SimTime t = 2 * s.config.beaconInterval + 3 * d; t < s.duration;
       t += 2 * s.config.beaconInterval + 7 * d) {
    edges.push_back(t / d * d);
  }
  return edges;
}

/// Faults at times that are no multiple of the 1 ms window, so ticks split
/// windows: crash, rejoin, partition and heal, drift (one factor small
/// enough to break the lookahead bound and force the per-event loop for a
/// while), garble, stuck and release, and a loss burst.
template <typename State>
void installChaos(NetworkSimulator<State>& sim, const Scenario& s,
                  std::vector<std::function<void()>>& script) {
  const SimTime interval = s.config.beaconInterval;
  const auto n = static_cast<graph::Vertex>(s.nodes);
  const graph::Vertex a = 1 % n;
  const graph::Vertex b = 2 % n;
  const graph::Vertex c = 3 % n;
  std::vector<std::uint8_t> side(s.nodes, 0);
  for (std::size_t v = 0; v < s.nodes / 2; ++v) side[v] = 1;
  const std::vector<std::pair<SimTime, std::function<void()>>> plan = {
      {3 * interval + 377, [&sim, a] { sim.chaosCrash(a); }},
      {4 * interval + 123, [&sim, b] { sim.chaosGarble(b, State{}); }},
      {5 * interval + 611, [&sim, c] { sim.chaosSetStuck(c, true); }},
      {6 * interval + 457,
       [&sim, a, interval] { sim.chaosRejoin(a, interval / 3 + 17); }},
      {7 * interval + 999, [&sim, side] { sim.chaosSetPartition(side); }},
      {8 * interval + 250, [&sim, b] { sim.chaosSetDrift(b, 1.4); }},
      {9 * interval + 731, [&sim, c] { sim.chaosSetStuck(c, false); }},
      {10 * interval + 5, [&sim] { sim.chaosSetLossProbability(0.4); }},
      {11 * interval + 841, [&sim] { sim.chaosHealPartition(); }},
      {12 * interval + 1, [&sim, c] { sim.chaosSetDrift(c, 0.005); }},
      {13 * interval + 313, [&sim, c] { sim.chaosSetDrift(c, 1.0); }},
      {14 * interval + 77, [&sim, s] {
         sim.chaosSetLossProbability(s.config.lossProbability);
       }},
  };
  sim.chaosAttach(1.5);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    script.push_back(plan[i].second);
    sim.chaosScheduleTick(plan[i].first, static_cast<std::int64_t>(i));
  }
  if (s.slicing == Slicing::WindowEdges) {
    // A tick on the first microsecond after each slice, while the
    // broadcasts of the slice's last (phased) window are in flight.
    const std::vector<SimTime> edges = windowEdges(s);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const double loss = i % 2 == 0 ? 0.2 : s.config.lossProbability;
      script.push_back([&sim, loss, b] {
        sim.chaosSetLossProbability(loss);
        sim.chaosGarble(b, State{});
      });
      sim.chaosScheduleTick(edges[i],
                            static_cast<std::int64_t>(script.size() - 1));
    }
  }
  sim.chaosSetHandler(
      [&script](std::int64_t i) { script[static_cast<std::size_t>(i)](); });
}

template <typename State>
Outcome runOnce(const engine::Protocol<State>& protocol, const Scenario& s,
                std::size_t workers) {
  const auto mobility = s.makeMobility();
  const auto ids = graph::IdAssignment::identity(s.nodes);
  NetworkSimulator<State> sim(protocol, ids, *mobility, s.config, workers);
  std::ostringstream log;
  telemetry::EventLog events(log);
  sim.attachTelemetry(nullptr, &events);
  std::vector<std::function<void()>> script;
  if (s.chaos) installChaos(sim, s, script);

  Outcome out;
  const SimTime interval = s.config.beaconInterval;
  switch (s.slicing) {
    case Slicing::Whole:
      sim.run(s.duration);
      break;
    case Slicing::PerInterval:
      for (SimTime t = interval; t < s.duration; t += interval) sim.run(t);
      sim.run(s.duration);
      break;
    case Slicing::OddSlices:
      for (SimTime t = 0; t < s.duration;) {
        t = std::min(s.duration, t + 7777 + (t % 3) * 1234);
        sim.run(t);
      }
      break;
    case Slicing::WindowEdges:
      for (const SimTime edge : windowEdges(s)) sim.run(edge - 1);
      sim.run(s.duration);
      break;
    case Slicing::UntilQuiet: {
      const QuietResult r = sim.runUntilQuiet(5 * interval, s.duration);
      out.quiet = r.quiet;
      EXPECT_EQ(r.endTime, sim.now());
      break;
    }
  }
  out.stats = sim.stats();
  out.index = sim.indexStats();
  for (const State& st : sim.states()) out.states.push_back(hashValue(st));
  out.events = log.str();
  out.now = sim.now();
  return out;
}

template <typename State>
void checkAllWorkerCounts(const engine::Protocol<State>& protocol,
                          const Scenario& s, const std::string& what) {
  const Outcome oracle = runOnce(protocol, s, kPerEventLoop);
  for (const std::size_t workers : {1u, 2u, 3u, 4u}) {
    expectSame(oracle, runOnce(protocol, s, workers),
               what + ", " + std::to_string(workers) + " worker(s)");
  }
}

/// A few hundred hosts with a 1 ms delay (or a longer one): windows hold
/// several beacons and several arrivals, and every node range of a 4-worker
/// split sees traffic.
Scenario makeScenario(std::uint64_t seed) {
  graph::Rng rng(seed);
  Scenario s;
  s.nodes = 150 + rng.below(250);
  s.config.seed = seed;
  s.config.beaconInterval =
      static_cast<SimTime>(20 + rng.below(60)) * kMillisecond;
  s.config.propagationDelay =
      rng.chance(0.3) ? static_cast<SimTime>(2 + rng.below(4)) * kMillisecond
                      : kMillisecond;
  s.config.jitterFraction = rng.real(0.0, 0.2);
  s.config.radius = 0.08 + 0.08 * rng.real();
  s.config.lossProbability = rng.chance(0.5) ? 0.0 : 0.1;
  s.config.collisionWindow =
      rng.chance(0.6) ? 0 : s.config.beaconInterval / 10;
  s.config.schedule =
      rng.chance(0.5) ? engine::Schedule::Dense : engine::Schedule::Active;
  if (rng.chance(0.25)) {
    for (std::size_t v = 0; v < s.nodes; ++v) {
      s.config.perNodeRadius.push_back(0.05 + 0.12 * rng.real());
    }
  }
  s.config.index = rng.chance(0.5) ? IndexMode::Grid : IndexMode::Scan;
  s.config.queue = rng.chance(0.5) ? QueueMode::Calendar : QueueMode::Heap;
  s.start = graph::randomPoints(s.nodes, rng);
  s.waypoint = rng.chance(0.7);
  if (s.waypoint) {
    s.wp.speedMin = 0.02 + 0.1 * rng.real();
    s.wp.speedMax = s.wp.speedMin + 0.5 * rng.real();
    // Pause legs shorter than a window: a host changes legs inside one.
    s.wp.pause = rng.chance(0.5)
                     ? static_cast<SimTime>(50 + rng.below(900))
                     : static_cast<SimTime>(rng.below(100)) * kMillisecond;
    s.wp.stopTime =
        rng.chance(0.4) ? 12 * s.config.beaconInterval + 333 : SimTime{-1};
    s.mobilitySeed = hashCombine(seed, 0x776179ULL);
  }
  s.duration = 30 * s.config.beaconInterval + 4321;
  s.slicing = static_cast<Slicing>(rng.below(4));
  s.chaos = rng.chance(0.4);
  return s;
}

std::string describe(std::uint64_t seed, const Scenario& s) {
  std::ostringstream os;
  os << "seed " << seed << " (n=" << s.nodes
     << (s.waypoint ? " waypoint" : " static")
     << (s.config.index == IndexMode::Grid ? " grid" : " scan")
     << (s.config.queue == QueueMode::Calendar ? " calendar" : " heap")
     << " delay=" << s.config.propagationDelay << "us"
     << " slicing=" << static_cast<int>(s.slicing)
     << (s.chaos ? " chaos" : "") << ")";
  return os.str();
}

TEST(SimWindowExecutor, SmmMatchesPerEventLoop) {
  for (std::uint64_t seed = 1; seed <= stressIters(3); ++seed) {
    const Scenario s = makeScenario(seed);
    checkAllWorkerCounts<core::PointerState>(core::smmPaper(), s,
                                             "smm " + describe(seed, s));
  }
}

TEST(SimWindowExecutor, SisMatchesPerEventLoop) {
  const core::SisProtocol sis;
  for (std::uint64_t seed = 101; seed <= 100 + stressIters(3); ++seed) {
    const Scenario s = makeScenario(seed);
    checkAllWorkerCounts<core::BitState>(sis, s, "sis " + describe(seed, s));
  }
}

TEST(SimWindowExecutor, LeaderTreeMatchesPerEventLoop) {
  const core::LeaderTreeProtocol tree(64);
  for (std::uint64_t seed = 201; seed <= 200 + stressIters(2); ++seed) {
    const Scenario s = makeScenario(seed);
    checkAllWorkerCounts<core::LeaderState>(tree, s,
                                            "leadertree " + describe(seed, s));
  }
}

/// Every mode pair, chaos on, under each slicing: one case per (index,
/// queue, slicing) so the cases run in parallel under ctest -j.
struct ModeCase {
  IndexMode index;
  QueueMode queue;
  Slicing slicing;
};

std::vector<ModeCase> everyModeCase() {
  std::vector<ModeCase> cases;
  for (const IndexMode index : {IndexMode::Grid, IndexMode::Scan}) {
    for (const QueueMode queue : {QueueMode::Calendar, QueueMode::Heap}) {
      for (const Slicing slicing :
           {Slicing::Whole, Slicing::PerInterval, Slicing::OddSlices,
            Slicing::UntilQuiet, Slicing::WindowEdges}) {
        cases.push_back({index, queue, slicing});
      }
    }
  }
  return cases;
}

std::string modeCaseName(const ModeCase& c) {
  static constexpr const char* kSlicings[] = {
      "Whole", "PerInterval", "OddSlices", "UntilQuiet", "WindowEdges"};
  return std::string(c.index == IndexMode::Grid ? "Grid" : "Scan") +
         (c.queue == QueueMode::Calendar ? "Calendar" : "Heap") +
         kSlicings[static_cast<int>(c.slicing)];
}

void PrintTo(const ModeCase& c, std::ostream* os) { *os << modeCaseName(c); }

class SimWindowExecutorModes : public ::testing::TestWithParam<ModeCase> {};

TEST_P(SimWindowExecutorModes, MatchesPerEventLoopUnderChaos) {
  Scenario s = makeScenario(7);
  s.nodes = 240;
  s.start.resize(s.nodes);
  s.config.perNodeRadius.clear();
  s.waypoint = true;
  s.wp.speedMin = 0.05;
  s.wp.speedMax = 0.3;
  s.wp.pause = 400;  // 0.4 ms: shorter than one window
  s.wp.stopTime = -1;
  s.mobilitySeed = 99;
  s.config.propagationDelay = kMillisecond;
  s.config.collisionWindow = s.config.beaconInterval / 10;
  s.config.lossProbability = 0.05;
  s.chaos = true;
  s.config.index = GetParam().index;
  s.config.queue = GetParam().queue;
  s.slicing = GetParam().slicing;
  checkAllWorkerCounts<core::PointerState>(core::smmPaper(), s,
                                           "modes " + describe(7, s));
}

INSTANTIATE_TEST_SUITE_P(EveryModeAndSlicing, SimWindowExecutorModes,
                         ::testing::ValuesIn(everyModeCase()),
                         [](const ::testing::TestParamInfo<ModeCase>& c) {
                           return modeCaseName(c.param);
                         });

/// Static hosts converge, so runUntilQuiet stops inside a window; the
/// window in which the quiet test could fire runs event by event.
TEST(SimWindowExecutor, UntilQuietStopsMidWindow) {
  Scenario s = makeScenario(11);
  s.waypoint = false;
  s.chaos = false;
  s.config.lossProbability = 0.0;
  s.config.collisionWindow = 0;
  s.slicing = Slicing::UntilQuiet;
  s.duration = 200 * s.config.beaconInterval;
  const Outcome oracle =
      runOnce<core::PointerState>(core::smmPaper(), s, kPerEventLoop);
  ASSERT_TRUE(oracle.quiet);
  EXPECT_NE(oracle.now % s.config.propagationDelay, 0);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    expectSame(oracle,
               runOnce<core::PointerState>(core::smmPaper(), s, workers),
               "until-quiet, " + std::to_string(workers) + " worker(s)");
  }
}

/// No delay, no lookahead: every worker count takes the per-event loop.
TEST(SimWindowExecutor, ZeroDelayRunsTheEventLoop) {
  Scenario s = makeScenario(13);
  s.config.propagationDelay = 0;
  s.chaos = true;
  checkAllWorkerCounts<core::PointerState>(core::smmPaper(), s,
                                           "zero delay " + describe(13, s));
}

/// The grid's gather slack must cover one window on top of one beacon
/// interval: a placement waits for the next window, so a host can be
/// queried up to interval + delay after the position the grid holds. With
/// no jitter, fast hosts and a long delay, a slack short by the delay term
/// misses receivers the full scan finds.
TEST(SimWindowExecutor, GridSlackCoversTheWindow) {
  Scenario s;
  s.nodes = 400;
  graph::Rng rng(31);
  s.start = graph::randomPoints(s.nodes, rng);
  s.config.seed = 31;
  s.config.beaconInterval = 20 * kMillisecond;
  s.config.propagationDelay = 8 * kMillisecond;
  s.config.jitterFraction = 0.0;
  s.config.radius = 0.06;
  s.waypoint = true;
  s.wp.speedMin = 2.0;
  s.wp.speedMax = 3.0;
  s.mobilitySeed = 32;
  s.duration = 200 * s.config.beaconInterval;
  s.config.index = IndexMode::Scan;
  Outcome scan = runOnce<core::PointerState>(core::smmPaper(), s, 2);
  s.config.index = IndexMode::Grid;
  const Outcome grid = runOnce<core::PointerState>(core::smmPaper(), s, 2);
  scan.index = grid.index;  // mode-dependent by design
  expectSame(scan, grid, "grid vs scan, 2 workers");
}

/// IndexStats do not depend on how run() is sliced either.
TEST(SimWindowExecutor, IndexStatsIgnoreSlicing) {
  Scenario s = makeScenario(17);
  s.waypoint = true;
  s.wp.speedMin = 0.1;
  s.wp.speedMax = 0.4;
  s.mobilitySeed = 5;
  s.config.index = IndexMode::Grid;
  s.chaos = true;
  s.slicing = Slicing::Whole;
  const Outcome whole = runOnce<core::PointerState>(core::smmPaper(), s, 3);
  for (const Slicing slicing : {Slicing::PerInterval, Slicing::OddSlices}) {
    s.slicing = slicing;
    expectSame(whole, runOnce<core::PointerState>(core::smmPaper(), s, 3),
               "sliced run " + std::to_string(static_cast<int>(slicing)));
  }
}

}  // namespace
}  // namespace selfstab::adhoc

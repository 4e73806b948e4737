// Pinned trajectories of the beacon simulator.
//
// NetworkDifferential compares the index and queue modes with each other, so
// a change to the broadcast path that every mode shares cannot fail it. These
// cases pin absolute fingerprints instead: NetworkStats, a hash of the final
// states and a hash of the JSONL event log, plus the index counters, after one
// full-duration run() call. The expected values were recorded with one queue
// event per (broadcast, receiver); the batched arrival path must reproduce
// them exactly. Every case runs under both event queues. The grid's
// diagnostic counters (rangeChecks, broadcastCandidates) of the mobile grid
// cases were re-pinned when grid placements became deferred to the next
// lookahead window and the gather slack grew by maxSpeed x propagationDelay:
// the gathers return a few more candidates; stats, states and events held.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "adhoc/mobility.hpp"
#include "adhoc/network.hpp"
#include "core/leader_tree.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "graph/generators.hpp"
#include "graph/id_order.hpp"
#include "telemetry/telemetry.hpp"

namespace selfstab::adhoc {
namespace {

struct Fingerprint {
  NetworkStats stats;
  std::uint64_t states = 0;
  std::uint64_t events = 0;
  std::size_t rangeChecks = 0;
  std::size_t broadcastCandidates = 0;
  std::size_t collisionChecks = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

// Printed as a C++ initializer so a deliberate trajectory change can be
// re-pinned by pasting the actual value.
std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
  const NetworkStats& s = f.stats;
  return os << "{{" << s.beaconsSent << ", " << s.beaconsDelivered << ", "
            << s.beaconsLost << ", " << s.beaconsCollided << ", " << s.moves
            << ", " << s.ruleEvaluations << ", " << s.evaluationsSkipped
            << "}, 0x" << std::hex << f.states << "ULL, 0x" << f.events
            << "ULL, " << std::dec << f.rangeChecks << ", "
            << f.broadcastCandidates << ", " << f.collisionChecks << "}";
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

using MakeMobility = std::function<std::unique_ptr<Mobility>()>;

/// A fresh mobility model per run: the models are stateful.
MakeMobility placed(std::size_t n, double radius, std::uint64_t seed) {
  return [=] {
    graph::Rng rng(seed);
    std::vector<graph::Point> pts;
    graph::connectedRandomGeometric(n, radius, rng, &pts);
    return std::make_unique<StaticPlacement>(std::move(pts));
  };
}

MakeMobility waypoint(std::size_t n, std::uint64_t seed) {
  return [=] {
    graph::Rng rng(seed);
    RandomWaypoint::Config wp;
    wp.speedMin = 0.02;
    wp.speedMax = 0.15;
    wp.pause = 40 * kMillisecond;
    return std::make_unique<RandomWaypoint>(graph::randomPoints(n, rng), wp,
                                            hashCombine(seed, 0x776179ULL));
  };
}

/// Timed actions delivered through chaos ticks, so a whole case is one
/// run(duration) call and faults land between arbitrary events.
template <typename State>
using Script = std::vector<
    std::pair<SimTime, std::function<void(NetworkSimulator<State>&)>>>;

template <typename State>
Fingerprint runCase(const engine::Protocol<State>& protocol,
                    const MakeMobility& mobility, const NetworkConfig& config,
                    SimTime duration, const Script<State>& script) {
  const auto placement = mobility();
  const auto ids = graph::IdAssignment::identity(placement->order());
  NetworkSimulator<State> sim(protocol, ids, *placement, config);
  std::ostringstream log;
  telemetry::EventLog events(log);
  sim.attachTelemetry(nullptr, &events);
  if (!script.empty()) {
    sim.chaosAttach(1.5);
    sim.chaosSetHandler([&](std::int64_t i) {
      script[static_cast<std::size_t>(i)].second(sim);
    });
    for (std::size_t i = 0; i < script.size(); ++i) {
      sim.chaosScheduleTick(script[i].first, static_cast<std::int64_t>(i));
    }
  }
  sim.run(duration);

  Fingerprint f;
  f.stats = sim.stats();
  for (const State& s : sim.states()) {
    f.states = hashCombine(f.states, hashValue(s));
  }
  f.events = fnv1a(log.str());
  f.rangeChecks = sim.indexStats().rangeChecks;
  f.broadcastCandidates = sim.indexStats().broadcastCandidates;
  f.collisionChecks = sim.indexStats().collisionChecks;
  return f;
}

template <typename State>
void expectPinned(const engine::Protocol<State>& protocol,
                  const MakeMobility& mobility, NetworkConfig config,
                  SimTime duration, const Fingerprint& expected,
                  const Script<State>& script = {}) {
  for (const QueueMode queue : {QueueMode::Calendar, QueueMode::Heap}) {
    config.queue = queue;
    EXPECT_EQ(runCase(protocol, mobility, config, duration, script), expected)
        << (queue == QueueMode::Calendar ? "calendar" : "heap") << " queue";
  }
}

constexpr SimTime kInterval = 100 * kMillisecond;

TEST(NetworkFingerprint, SmmWithBeaconLoss) {
  NetworkConfig config;
  config.seed = 11;
  config.radius = 0.2;
  config.lossProbability = 0.2;
  expectPinned<core::PointerState>(
      core::smmPaper(), placed(70, 0.2, 11), config, 60 * kInterval,
      {{4201, 23762, 5884, 0, 356, 4201, 0},
       0x1bb1133485385ccfULL, 0x443f0134f423a90bULL, 77426, 81627, 0});
}

TEST(NetworkFingerprint, SisWithCollisionWindow) {
  NetworkConfig config;
  config.seed = 12;
  config.radius = 0.2;
  config.collisionWindow = 800;
  expectPinned<core::BitState>(
      core::SisProtocol{}, placed(70, 0.2, 12), config, 60 * kInterval,
      {{4196, 24702, 0, 1060, 75, 4196, 0},
       0xdd6c96b7410a50d9ULL, 0x11f7109aef399d92ULL, 77117, 77799, 25770});
}

TEST(NetworkFingerprint, SmmWithPerNodeRadii) {
  NetworkConfig config;
  config.seed = 13;
  graph::Rng rng(13);
  for (int v = 0; v < 60; ++v) {
    config.perNodeRadius.push_back(0.12 + 0.18 * rng.real());
  }
  expectPinned<core::PointerState>(
      core::smmPaper(), placed(60, 0.2, 13), config, 60 * kInterval,
      {{3599, 23501, 0, 0, 147, 3599, 0},
       0x4485c6b9a05c8991ULL, 0x7da7d7b11a355476ULL, 81939, 85538, 0});
}

TEST(NetworkFingerprint, SisUnderWaypointMobilityLossAndCollisions) {
  NetworkConfig config;
  config.seed = 14;
  config.radius = 0.15;
  config.lossProbability = 0.05;
  config.collisionWindow = 500;
  expectPinned<core::BitState>(
      core::SisProtocol{}, waypoint(90, 14), config, 80 * kInterval,
      {{7197, 56747, 3005, 2951, 345, 7197, 0},
       0x7648cf4107849fdbULL, 0x2f09852fe7aad73dULL, 199828, 199065, 59710});
}

TEST(NetworkFingerprint, LeaderTreeUnderActiveScheduleAndMobility) {
  NetworkConfig config;
  config.seed = 15;
  config.radius = 0.18;
  config.schedule = engine::Schedule::Active;
  expectPinned<core::LeaderState>(
      core::LeaderTreeProtocol(80), waypoint(80, 15), config, 80 * kInterval,
      {{6399, 65788, 0, 0, 1556, 5488, 911},
       0x1f51d42818a88960ULL, 0xf94b7d033174ee50ULL, 180283, 186682, 0});
}

TEST(NetworkFingerprint, SmmWithReboots) {
  using Sim = NetworkSimulator<core::PointerState>;
  constexpr SimTime ms = kMillisecond;
  NetworkConfig config;
  config.seed = 16;
  config.radius = 0.2;
  const Script<core::PointerState> script = {
      {12 * kInterval + 3 * ms, [](Sim& sim) { sim.rebootNode(4); }},
      {20 * kInterval + 51 * ms,
       [](Sim& sim) {
         sim.rebootNode(9);
         sim.rebootNode(10);
       }},
      {33 * kInterval + 97 * ms, [](Sim& sim) { sim.rebootNode(4); }},
  };
  expectPinned<core::PointerState>(
      core::smmPaper(), placed(60, 0.2, 16), config, 70 * kInterval,
      {{4205, 27454, 0, 0, 150, 4205, 0},
       0xdd6fa997b6847205ULL, 0x7ea1e05b729f47acULL, 70508, 74713, 0},
      script);
}

// Crash, rejoin, partition, heal and garble faults, some landing while the
// victims' beacons are still in flight.
Script<core::PointerState> chaosCampaign() {
  using Sim = NetworkSimulator<core::PointerState>;
  constexpr SimTime ms = kMillisecond;
  return {
      {10 * kInterval + 37 * ms,
       [](Sim& sim) {
         sim.chaosCrash(3);
         sim.chaosCrash(17);
       }},
      {12 * kInterval + 5 * ms,
       [](Sim& sim) {
         sim.chaosGarble(5, core::PointerState{6});
         sim.chaosGarble(20, core::PointerState{});
       }},
      {15 * kInterval + 61 * ms,
       [](Sim& sim) {
         std::vector<std::uint8_t> side(60);
         for (std::size_t v = 0; v < side.size(); ++v) side[v] = v < 30 ? 0 : 1;
         sim.chaosSetPartition(std::move(side));
       }},
      {20 * kInterval + 1 * ms,
       [](Sim& sim) {
         sim.chaosRejoin(3, kInterval / 3);
         sim.chaosGarble(8, core::PointerState{41});
       }},
      {25 * kInterval + 88 * ms,
       [](Sim& sim) {
         sim.chaosHealPartition();
         sim.chaosRejoin(17, kInterval / 7);
       }},
      {30 * kInterval + 50 * ms, [](Sim& sim) { sim.chaosCrash(40); }},
      {30 * kInterval + 50 * ms + 400,
       [](Sim& sim) { sim.chaosRejoin(40, 13 * ms); }},
      {36 * kInterval + 12 * ms,
       [](Sim& sim) {
         sim.chaosCrash(41);
         sim.chaosGarble(42, core::PointerState{41});
       }},
      {44 * kInterval, [](Sim& sim) { sim.chaosRejoin(41, kInterval / 2); }},
  };
}

void expectChaosPinned(IndexMode index, const Fingerprint& expected) {
  NetworkConfig config;
  config.seed = 17;
  config.radius = 0.22;
  config.lossProbability = 0.05;
  config.collisionWindow = 300;
  config.index = index;
  expectPinned<core::PointerState>(core::smmPaper(), waypoint(60, 17), config,
                                   80 * kInterval, expected, chaosCampaign());
}

TEST(NetworkFingerprint, SmmChaosCampaignGridIndex) {
  expectChaosPinned(
      IndexMode::Grid,
      {{4769, 41640, 2341, 1658, 517, 4769, 0},
       0x9f474fc4fb4ba516ULL, 0x772789b5a8422021ULL, 133583, 143578, 43307});
}

// Same trajectory as the grid case; only the index counters differ.
TEST(NetworkFingerprint, SmmChaosCampaignScanIndex) {
  expectChaosPinned(
      IndexMode::Scan,
      {{4769, 41640, 2341, 1658, 517, 4769, 0},
       0x9f474fc4fb4ba516ULL, 0x772789b5a8422021ULL, 269404, 0, 43307});
}

}  // namespace
}  // namespace selfstab::adhoc

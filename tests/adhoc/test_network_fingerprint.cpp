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
// Every value was re-pinned when the first-beacon phase, jitter and loss
// draws became keyed by (seed, node, send time, receiver) instead of coming
// from one stream in event order: every trajectory changed once.
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
      {{4205, 23743, 5909, 0, 331, 4205, 0},
       0xf5ffd6d1ea972310ULL, 0xecd9106c63020aaaULL, 77429, 81634, 0});
}

TEST(NetworkFingerprint, SisWithCollisionWindow) {
  NetworkConfig config;
  config.seed = 12;
  config.radius = 0.2;
  config.collisionWindow = 800;
  expectPinned<core::BitState>(
      core::SisProtocol{}, placed(70, 0.2, 12), config, 60 * kInterval,
      {{4204, 24550, 0, 1268, 56, 4204, 0},
       0x754fc21184495c20ULL, 0x26b88a91fd993111ULL, 77393, 77938, 25818});
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
      {{3603, 23536, 0, 0, 152, 3603, 0},
       0xc14422b56ef54981ULL, 0xa39d9a6980b444cfULL, 82037, 85640, 0});
}

TEST(NetworkFingerprint, SisUnderWaypointMobilityLossAndCollisions) {
  NetworkConfig config;
  config.seed = 14;
  config.radius = 0.15;
  config.lossProbability = 0.05;
  config.collisionWindow = 500;
  expectPinned<core::BitState>(
      core::SisProtocol{}, waypoint(90, 14), config, 80 * kInterval,
      {{7203, 56665, 3161, 2913, 359, 7203, 0},
       0x61abb87117f69413ULL, 0xc7bedc34af697e74ULL, 200050, 199350, 59578});
}

TEST(NetworkFingerprint, LeaderTreeUnderActiveScheduleAndMobility) {
  NetworkConfig config;
  config.seed = 15;
  config.radius = 0.18;
  config.schedule = engine::Schedule::Active;
  expectPinned<core::LeaderState>(
      core::LeaderTreeProtocol(80), waypoint(80, 15), config, 80 * kInterval,
      {{6398, 65812, 0, 0, 1538, 5484, 914},
       0x472d877e85d7cf5eULL, 0xb3d3a6eb33a0220bULL, 180564, 186962, 0});
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
      {{4203, 27458, 0, 0, 148, 4203, 0},
       0xb6cadca938afed72ULL, 0xad33aabb008fde49ULL, 70473, 74676, 0},
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
      {{4768, 41770, 2266, 1626, 539, 4768, 0},
       0x457020ed11ae9980ULL, 0xf9fb09449602fc99ULL, 133559, 143673, 43396});
}

// Same trajectory as the grid case; only the index counters differ.
TEST(NetworkFingerprint, SmmChaosCampaignScanIndex) {
  expectChaosPinned(
      IndexMode::Scan,
      {{4768, 41770, 2266, 1626, 539, 4768, 0},
       0x457020ed11ae9980ULL, 0xf9fb09449602fc99ULL, 269592, 0, 43396});
}

}  // namespace
}  // namespace selfstab::adhoc

// Semantics of the simulator's per-broadcast arrivals: one arrival (an entry
// of the arrival lane, merged with the event queue by time) delivers one
// beacon to every receiver picked at send time, with the payload captured
// at send, and each receiver's crash state checked at arrival.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "adhoc/mobility.hpp"
#include "adhoc/network.hpp"
#include "core/smm.hpp"
#include "graph/id_order.hpp"

namespace selfstab::adhoc {
namespace {

constexpr SimTime kInterval = 100 * kMillisecond;

/// A node's state is a constant tag, 1000 + v unless a test garbles a
/// beacon. The protocol never moves; it records every cached neighbor state
/// it is shown, so a test can see exactly which payloads arrived.
struct Tag {
  std::uint32_t value = 0;
  friend bool operator==(const Tag&, const Tag&) = default;
};

class RecordingProtocol final : public engine::Protocol<Tag> {
 public:
  struct Seen {
    graph::Vertex self;
    graph::Vertex from;
    std::uint32_t value;
  };

  [[nodiscard]] std::string_view name() const override { return "recording"; }
  [[nodiscard]] Tag initialState(graph::Vertex v) const override {
    return Tag{1000 + v};
  }
  [[nodiscard]] std::optional<Tag> onRound(
      const engine::LocalView<Tag>& view) const override {
    for (const auto& nbr : view.neighbors) {
      seen.push_back(Seen{view.self, nbr.vertex, nbr.state->value});
    }
    return std::nullopt;
  }

  mutable std::vector<Seen> seen;
};

/// Node 0 in the middle, leaves 1..4 around it: every leaf hears only the
/// center, and the center's broadcast reaches all four leaves.
StaticPlacement star() {
  return StaticPlacement({{0.5, 0.5}, {0.7, 0.5}, {0.3, 0.5}, {0.5, 0.7},
                          {0.5, 0.3}});
}

/// No jitter and a propagation delay of exactly one interval: at any time
/// every live node has exactly one broadcast in flight.
NetworkConfig starConfig() {
  NetworkConfig config;
  config.seed = 5;
  config.radius = 0.25;
  config.jitterFraction = 0.0;
  config.propagationDelay = kInterval;
  return config;
}

/// The values of `from`'s state that `self` saw, with repeats collapsed.
std::vector<std::uint32_t> seenFrom(const RecordingProtocol& p,
                                    graph::Vertex self, graph::Vertex from,
                                    std::size_t begin = 0) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = begin; i < p.seen.size(); ++i) {
    const auto& s = p.seen[i];
    if (s.self != self || s.from != from) continue;
    if (out.empty() || out.back() != s.value) out.push_back(s.value);
  }
  return out;
}

TEST(ArrivalBatch, ReceiverCrashedInFlightLosesOnlyItsOwnDelivery) {
  const auto ids = graph::IdAssignment::identity(5);
  RecordingProtocol pa;
  RecordingProtocol pb;
  StaticPlacement ma = star();
  StaticPlacement mb = star();
  NetworkSimulator<Tag> crashed(pa, ids, ma, starConfig());
  NetworkSimulator<Tag> twin(pb, ids, mb, starConfig());
  crashed.chaosAttach();
  twin.chaosAttach();

  const SimTime t = 10 * kInterval + 37 * kMillisecond;
  crashed.run(t);
  twin.run(t);
  ASSERT_EQ(crashed.stats(), twin.stats());
  // The center's last broadcast (to all four leaves) is in flight. Leaf 1
  // crashes before it lands; leaves 2..4 must still get it.
  crashed.chaosCrash(1);
  crashed.run(t + kInterval);
  twin.run(t + kInterval);
  EXPECT_EQ(twin.stats().beaconsDelivered - crashed.stats().beaconsDelivered,
            1U);
  EXPECT_EQ(twin.stats().beaconsSent - crashed.stats().beaconsSent, 1U);
}

TEST(ArrivalBatch, GarbledPayloadIsCapturedAtSend) {
  const auto ids = graph::IdAssignment::identity(5);
  RecordingProtocol protocol;
  StaticPlacement mobility = star();
  NetworkSimulator<Tag> sim(protocol, ids, mobility, starConfig());
  sim.chaosAttach();

  const SimTime t = 10 * kInterval + 37 * kMillisecond;
  sim.run(t);
  const std::size_t mark = protocol.seen.size();
  sim.chaosGarble(0, Tag{7});
  // The garbled beacon leaves within one interval and is then in flight.
  // Arming the next garble overwrites the chaos state the first was read
  // from, before the first arrives.
  sim.run(t + kInterval);
  sim.chaosGarble(0, Tag{8});
  sim.run(t + 5 * kInterval);

  for (graph::Vertex leaf = 1; leaf <= 4; ++leaf) {
    EXPECT_EQ(seenFrom(protocol, leaf, 0, mark),
              (std::vector<std::uint32_t>{1000, 7, 8, 1000}))
        << "leaf " << leaf;
  }
}

TEST(ArrivalBatch, RejoinWithBroadcastsInFlightReadsLiveSlots) {
  const auto ids = graph::IdAssignment::identity(5);
  RecordingProtocol protocol;
  StaticPlacement mobility = star();
  NetworkSimulator<Tag> sim(protocol, ids, mobility, starConfig());
  sim.chaosAttach();

  SimTime t = 10 * kInterval + 37 * kMillisecond;
  sim.run(t);
  // Crash and rejoin leaves over and over while every node has a broadcast
  // in flight; arrivals keep recycling arrival-lane slots meanwhile.
  for (int round = 0; round < 20; ++round) {
    const auto leaf = static_cast<graph::Vertex>(1 + round % 4);
    sim.chaosCrash(leaf);
    t += kMillisecond;
    sim.run(t);
    sim.chaosRejoin(leaf, kInterval - 2 * kMillisecond);
    t += 3 * kInterval / 2;
    sim.run(t);
  }
  sim.run(t + 10 * kInterval);

  // Every payload anyone was shown is the sender's own tag: an arrival read
  // through a lane slot recycled by another broadcast would show a foreign
  // one.
  for (const auto& s : protocol.seen) {
    EXPECT_EQ(s.value, 1000 + s.from) << "node " << s.self;
  }
  // The leaves rejoined and hear the center again.
  for (graph::Vertex leaf = 1; leaf <= 4; ++leaf) {
    EXPECT_EQ(seenFrom(protocol, leaf, 0, protocol.seen.size() - 8),
              (std::vector<std::uint32_t>{1000}))
        << "leaf " << leaf;
  }
}

// runUntilQuiet checks for quiet after each event it pops. A broadcast is one
// arrival, so the run can only stop once all of its receivers have it: on a
// clique without loss every broadcast reaches n - 1 receivers, and the
// delivered count at a quiet stop must be a multiple of n - 1.
TEST(ArrivalBatch, QuietStopLandsOnABroadcastBoundary) {
  constexpr std::size_t n = 8;
  const auto ids = graph::IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    graph::Rng rng(seed);
    std::vector<graph::Point> pts;
    for (std::size_t v = 0; v < n; ++v) {
      pts.push_back({0.45 + 0.1 * rng.real(), 0.45 + 0.1 * rng.real()});
    }
    StaticPlacement mobility(pts);
    NetworkConfig config;
    config.seed = seed;
    config.propagationDelay = 30 * kMillisecond;
    NetworkSimulator<core::PointerState> sim(smm, ids, mobility, config);
    const QuietResult result =
        sim.runUntilQuiet(5 * kInterval, 200 * kInterval);
    ASSERT_TRUE(result.quiet) << "seed " << seed;
    EXPECT_EQ(result.stats.beaconsDelivered % (n - 1), 0U)
        << "seed " << seed << ": stopped inside a broadcast, "
        << result.stats.beaconsDelivered << " deliveries";
  }
}

}  // namespace
}  // namespace selfstab::adhoc

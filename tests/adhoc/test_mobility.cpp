#include "adhoc/mobility.hpp"

#include <gtest/gtest.h>

namespace selfstab::adhoc {
namespace {

using graph::Point;

TEST(StaticPlacement, NeverMoves) {
  StaticPlacement mobility({{0.1, 0.2}, {0.3, 0.4}});
  EXPECT_EQ(mobility.order(), 2u);
  for (const SimTime t : {SimTime{0}, 5 * kSecond, 500 * kSecond}) {
    EXPECT_EQ(mobility.position(0, t), (Point{0.1, 0.2}));
    EXPECT_EQ(mobility.position(1, t), (Point{0.3, 0.4}));
  }
  mobility.prepare(0, kSecond);
  EXPECT_EQ(mobility.preparedPosition(1, kSecond / 2), (Point{0.3, 0.4}));
}

TEST(RandomWaypoint, StaysInUnitSquare) {
  graph::Rng rng(1);
  RandomWaypoint mobility(graph::randomPoints(10, rng), {}, 42);
  for (SimTime t = 0; t <= 200 * kSecond; t += kSecond) {
    for (graph::Vertex v = 0; v < 10; ++v) {
      const Point p = mobility.position(v, t);
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 1.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 1.0);
    }
  }
}

TEST(RandomWaypoint, MovesContinuously) {
  graph::Rng rng(2);
  RandomWaypoint::Config config;
  config.speedMin = config.speedMax = 0.1;  // 0.1 units per second
  RandomWaypoint mobility(graph::randomPoints(4, rng), config, 7);
  for (graph::Vertex v = 0; v < 4; ++v) {
    Point prev = mobility.position(v, 0);
    for (SimTime t = kSecond / 10; t <= 20 * kSecond; t += kSecond / 10) {
      const Point cur = mobility.position(v, t);
      // At 0.1 units/s, a 0.1 s step moves at most ~0.01 units.
      EXPECT_LE(graph::distance(prev, cur), 0.0101);
      prev = cur;
    }
  }
}

TEST(RandomWaypoint, ActuallyTravels) {
  graph::Rng rng(3);
  RandomWaypoint::Config config;
  config.speedMin = 0.2;
  config.speedMax = 0.3;
  RandomWaypoint mobility(graph::randomPoints(4, rng), config, 9);
  std::size_t moved = 0;
  for (graph::Vertex v = 0; v < 4; ++v) {
    const Point start = mobility.position(v, 0);
    const Point later = mobility.position(v, 10 * kSecond);
    if (graph::distance(start, later) > 0.05) ++moved;
  }
  EXPECT_GE(moved, 3u);  // essentially everyone goes somewhere
}

TEST(RandomWaypoint, StopTimeFreezesMotion) {
  graph::Rng rng(4);
  RandomWaypoint::Config config;
  config.speedMin = 0.2;
  config.speedMax = 0.3;
  config.stopTime = 5 * kSecond;
  RandomWaypoint mobility(graph::randomPoints(4, rng), config, 11);
  for (graph::Vertex v = 0; v < 4; ++v) {
    const Point frozen = mobility.position(v, 5 * kSecond);
    EXPECT_EQ(mobility.position(v, 50 * kSecond), frozen);
    EXPECT_EQ(mobility.position(v, 500 * kSecond), frozen);
  }
}

TEST(RandomWaypoint, PauseLegsDwell) {
  graph::Rng rng(5);
  RandomWaypoint::Config config;
  config.speedMin = config.speedMax = 10.0;  // teleport-fast travel legs
  config.pause = 100 * kSecond;              // then long dwells
  RandomWaypoint mobility(graph::randomPoints(2, rng), config, 13);
  // After the first (fast) travel leg the node sits still for a long time;
  // sample two nearby instants well inside a pause window.
  const Point a = mobility.position(0, 50 * kSecond);
  const Point b = mobility.position(0, 51 * kSecond);
  EXPECT_EQ(a, b);
}

// prepare() + preparedPosition() must return exactly what position() does,
// across leg boundaries, at stopTime, and with legs shorter than a span.
TEST(Mobility, PreparedSpanMatchesLazyPosition) {
  graph::Rng rng(6);
  const auto start = graph::randomPoints(12, rng);
  RandomWaypoint::Config config;
  config.speedMin = 0.5;   // travel legs of a second or two
  config.speedMax = 3.0;
  config.pause = 300;      // 0.3 ms pause legs: several fit in one span
  config.stopTime = 7 * kSecond + 4321;
  RandomWaypoint prepared(start, config, 17);
  RandomWaypoint lazy(start, config, 17);
  constexpr SimTime kSpan = kMillisecond;
  std::size_t legChanges = 0;
  for (SimTime from = 0; from < 9 * kSecond; from += kSpan) {
    prepared.prepare(from, from + kSpan - 1);
    for (graph::Vertex v = 0; v < 12; ++v) {
      Point last = prepared.preparedPosition(v, from);
      for (SimTime t = from; t < from + kSpan; t += 97) {
        const Point p = prepared.preparedPosition(v, t);
        ASSERT_EQ(p, lazy.position(v, t)) << "v=" << v << " t=" << t;
        if (!(p == last)) ++legChanges;
        last = p;
      }
    }
    // A serial position() query inside the span (the simulator's rejoin
    // and topology paths make them) must not disturb later prepared ones.
    if (from % (50 * kSpan) == 0) {
      ASSERT_EQ(prepared.position(3, from + kSpan / 2),
                lazy.position(3, from + kSpan / 2));
      ASSERT_EQ(prepared.preparedPosition(3, from + kSpan - 1),
                lazy.position(3, from + kSpan - 1));
    }
  }
  EXPECT_GT(legChanges, 0U);
  // Frozen after stopTime: the prepared span answers with the stop point.
  prepared.prepare(20 * kSecond, 20 * kSecond + kSpan);
  for (graph::Vertex v = 0; v < 12; ++v) {
    EXPECT_EQ(prepared.preparedPosition(v, 20 * kSecond),
              lazy.position(v, config.stopTime));
  }
}

}  // namespace
}  // namespace selfstab::adhoc

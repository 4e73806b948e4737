// Host mobility models.
//
// The paper's topology changes come from "mobility of the hosts" (Section 1).
// We model nodes moving in the unit square; radio links exist between hosts
// within transmission radius (unit-disk connectivity), so movement creates
// and destroys links exactly as the neighbor-discovery protocol expects.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "adhoc/sim_time.hpp"
#include "graph/geometry.hpp"
#include "graph/graph.hpp"
#include "graph/rng.hpp"

namespace selfstab::adhoc {

/// Position provider. position() may be called with non-decreasing times per
/// vertex interleaved arbitrarily across vertices; implementations advance
/// internal trajectories lazily. position(v, t) must be a pure function of
/// (v, t) — which vertices get queried, and how queries interleave across
/// vertices, must not influence any trajectory. (The spatial-index and
/// reference simulator paths query different vertex subsets; purity is what
/// keeps their trajectories bit-identical.)
///
/// prepare(from, to) + preparedPosition(v, t) is the read-only form the
/// simulator's worker threads use: after prepare, preparedPosition answers
/// any (v, t) with t in [from, to] without mutating anything, so concurrent
/// calls are safe, and it returns exactly position(v, t). Spans must not
/// move backwards: `from` is no earlier than any earlier span's `from` or
/// any position() query already made.
class Mobility {
 public:
  Mobility() = default;
  Mobility(const Mobility&) = delete;
  Mobility& operator=(const Mobility&) = delete;
  virtual ~Mobility() = default;

  [[nodiscard]] virtual std::size_t order() const = 0;
  [[nodiscard]] virtual graph::Point position(graph::Vertex v, SimTime t) = 0;

  /// Makes preparedPosition valid over [from, to] (from <= to).
  virtual void prepare(SimTime from, SimTime to) = 0;

  /// position(v, t) for t in the last prepared span, bit for bit; const and
  /// safe to call from several threads at once.
  [[nodiscard]] virtual graph::Point preparedPosition(graph::Vertex v,
                                                      SimTime t) const = 0;

  /// Hard upper bound on any host's instantaneous speed (unit-square widths
  /// per second). The spatial index uses it to bound how far a host can
  /// drift between position refreshes.
  [[nodiscard]] virtual double maxSpeed() const noexcept = 0;

  /// Time from which no host moves any more; kNeverSettles if some host may
  /// keep moving. A link that breaks just before this time is noticed only
  /// when its cache entry expires, so quiescence counts from here at the
  /// earliest (NetworkSimulator::runUntilQuiet).
  [[nodiscard]] virtual SimTime settleTime() const noexcept = 0;

  static constexpr SimTime kNeverSettles =
      std::numeric_limits<SimTime>::max();
};

/// Hosts that never move.
class StaticPlacement final : public Mobility {
 public:
  explicit StaticPlacement(std::vector<graph::Point> points)
      : points_(std::move(points)) {}

  [[nodiscard]] std::size_t order() const override { return points_.size(); }

  [[nodiscard]] graph::Point position(graph::Vertex v, SimTime) override {
    return points_[v];
  }

  void prepare(SimTime, SimTime) override {}

  [[nodiscard]] graph::Point preparedPosition(graph::Vertex v,
                                              SimTime) const override {
    return points_[v];
  }

  [[nodiscard]] double maxSpeed() const noexcept override { return 0.0; }

  [[nodiscard]] SimTime settleTime() const noexcept override { return 0; }

 private:
  std::vector<graph::Point> points_;
};

/// Random waypoint: each host repeatedly picks a uniform target in the unit
/// square and a uniform speed in [speedMin, speedMax] (units per second),
/// travels there in a straight line, pauses, and repeats. Movement can be
/// frozen after `stopTime` so experiments can wait for re-stabilization on a
/// then-static topology.
class RandomWaypoint final : public Mobility {
 public:
  struct Config {
    double speedMin = 0.01;   ///< unit-square widths per second
    double speedMax = 0.05;
    SimTime pause = 0;        ///< dwell time at each waypoint
    SimTime stopTime = -1;    ///< freeze movement after this time; -1 = never
  };

  RandomWaypoint(std::vector<graph::Point> start, Config config,
                 std::uint64_t seed);

  [[nodiscard]] std::size_t order() const override { return legs_.size(); }

  [[nodiscard]] graph::Point position(graph::Vertex v, SimTime t) override;

  /// Advances only the hosts whose materialized legs end before `to` (a
  /// min-heap on that end time), so a span costs O(legs started in it).
  void prepare(SimTime from, SimTime to) override;

  [[nodiscard]] graph::Point preparedPosition(graph::Vertex v,
                                              SimTime t) const override;

  [[nodiscard]] double maxSpeed() const noexcept override {
    return config_.speedMax;
  }

  [[nodiscard]] SimTime settleTime() const noexcept override {
    return config_.stopTime >= 0 ? config_.stopTime : kNeverSettles;
  }

 private:
  struct Leg {
    graph::Point from;
    graph::Point to;
    SimTime start = 0;
    SimTime end = 0;  ///< arrival time; a pause leg has from == to
  };

  void advance(graph::Vertex v, SimTime t);
  Leg nextLeg(graph::Vertex v, const Leg& current);
  [[nodiscard]] SimTime clampTime(SimTime t) const noexcept {
    return config_.stopTime >= 0 ? std::min(t, config_.stopTime) : t;
  }
  /// End of v's last drawn leg; needs ahead_ allocated.
  [[nodiscard]] SimTime coveredUntil(graph::Vertex v) const noexcept {
    return ahead_[v].empty() ? legs_[v].end : ahead_[v].back().end;
  }
  static graph::Point interpolate(const Leg& leg, SimTime t) noexcept;

  // legs_[v] is v's current leg; ahead_[v] holds the legs prepare() has
  // already drawn after it (usually none: legs last seconds, a span a
  // millisecond), in order. position() consumes ahead_ before drawing.
  // ahead_ and due_ stay empty until the first prepare().
  std::vector<Leg> legs_;
  std::vector<std::vector<Leg>> ahead_;
  // (coveredUntil, v) min-heap for prepare(); an entry is stale when
  // position() advanced v since, which prepare() detects and re-keys.
  std::vector<std::pair<SimTime, graph::Vertex>> due_;
  Config config_;
  // One RNG stream per host, seeded from (seed, v): a host's waypoint
  // sequence depends only on its own draws, making position(v, t) pure in
  // (v, t) no matter which subset of hosts gets queried (see Mobility).
  std::vector<Rng> rngs_;
};

}  // namespace selfstab::adhoc

#include "adhoc/mobility.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace selfstab::adhoc {

using graph::Point;
using graph::Vertex;

RandomWaypoint::RandomWaypoint(std::vector<Point> start, Config config,
                               std::uint64_t seed)
    : config_(config) {
  legs_.reserve(start.size());
  rngs_.reserve(start.size());
  for (const Point& p : start) {
    // Begin with a zero-length leg so the first position query spawns a
    // fresh trajectory from the starting point.
    legs_.push_back(Leg{p, p, 0, 0});
    rngs_.emplace_back(
        hashCombine(seed, static_cast<std::uint64_t>(rngs_.size())));
  }
}

RandomWaypoint::Leg RandomWaypoint::nextLeg(Vertex v, const Leg& current) {
  // Alternate travel legs with pause legs when a pause is configured.
  const bool justTravelled = !(current.from == current.to);
  if (justTravelled && config_.pause > 0) {
    return Leg{current.to, current.to, current.end, current.end + config_.pause};
  }
  Rng& rng = rngs_[v];
  const Point target{rng.real(), rng.real()};
  const double speed = rng.real(config_.speedMin, config_.speedMax);
  if (!(speed > 0.0)) {
    // Degenerate zero-speed config: dwell in place so maxSpeed() == 0
    // stays an honest bound.
    return Leg{current.to, current.to, current.end, current.end + kSecond};
  }
  const double dist = graph::distance(current.to, target);
  // Round the travel time *up*: a floor could make the realized speed
  // (dist / duration) exceed the drawn speed, and maxSpeed() must be a hard
  // bound for the simulator's spatial index to be exact.
  const auto duration = std::max<SimTime>(
      1, static_cast<SimTime>(std::ceil(dist / speed *
                                        static_cast<double>(kSecond))));
  return Leg{current.to, target, current.end, current.end + duration};
}

void RandomWaypoint::advance(Vertex v, SimTime t) {
  Leg& leg = legs_[v];
  if (ahead_.empty()) {  // never prepared
    while (leg.end < t) leg = nextLeg(v, leg);
    return;
  }
  std::vector<Leg>& ahead = ahead_[v];
  std::size_t used = 0;
  while (leg.end < t) {
    leg = used < ahead.size() ? ahead[used++] : nextLeg(v, leg);
  }
  ahead.erase(ahead.begin(), ahead.begin() + static_cast<std::ptrdiff_t>(used));
}

Point RandomWaypoint::position(Vertex v, SimTime t) {
  t = clampTime(t);
  advance(v, t);
  return interpolate(legs_[v], t);
}

void RandomWaypoint::prepare(SimTime from, SimTime to) {
  from = clampTime(from);
  to = clampTime(to);
  const auto later = [](const std::pair<SimTime, Vertex>& a,
                        const std::pair<SimTime, Vertex>& b) {
    return a > b;
  };
  if (ahead_.size() != legs_.size()) {
    // First span: built here rather than in the constructor, so a model
    // only ever asked for position() pays nothing for it.
    ahead_.resize(legs_.size());
    due_.reserve(legs_.size());
    for (Vertex v = 0; v < legs_.size(); ++v) {
      due_.emplace_back(coveredUntil(v), v);
    }
    std::make_heap(due_.begin(), due_.end(), later);
  }
  while (!due_.empty() && due_.front().first < to) {
    std::pop_heap(due_.begin(), due_.end(), later);
    const Vertex v = due_.back().second;
    due_.pop_back();
    // Drop the legs the span has left behind, then draw up to `to`.
    advance(v, from);
    std::vector<Leg>& ahead = ahead_[v];
    while (coveredUntil(v) < to) {
      ahead.push_back(nextLeg(v, ahead.empty() ? legs_[v] : ahead.back()));
    }
    due_.emplace_back(coveredUntil(v), v);
    std::push_heap(due_.begin(), due_.end(), later);
  }
}

Point RandomWaypoint::preparedPosition(Vertex v, SimTime t) const {
  t = clampTime(t);
  const Leg* leg = &legs_[v];
  if (leg->end < t) {
    const std::vector<Leg>& ahead = ahead_[v];
    std::size_t i = 0;
    while (ahead[i].end < t) {
      ++i;
      assert(i < ahead.size() && "t lies outside the prepared span");
    }
    leg = &ahead[i];
  }
  return interpolate(*leg, t);
}

Point RandomWaypoint::interpolate(const Leg& leg, SimTime t) noexcept {
  if (leg.end == leg.start) return leg.to;
  const double frac = static_cast<double>(t - leg.start) /
                      static_cast<double>(leg.end - leg.start);
  const double clamped = std::clamp(frac, 0.0, 1.0);
  return Point{leg.from.x + clamped * (leg.to.x - leg.from.x),
               leg.from.y + clamped * (leg.to.y - leg.from.y)};
}

}  // namespace selfstab::adhoc

// Round-scheduling policy for the synchronous executor.
//
// A node's guard reads only its closed neighborhood N[v] (Section 2), so
// after a round only N[moved] can hold a newly enabled node. SyncRunner's
// one exact executor keeps that work set as a bitset and evaluates it
// adaptively: as an ascending list while it is small, as a full sweep once
// it is large (see sync_runner.hpp). The enum below selects that executor
// (Dense, the default) or pins it to one of its two evaluation paths; the
// pinned modes are test oracles, and every mode produces the same
// trajectory bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>


namespace selfstab::engine {

/// How SyncRunner walks each round's work set.
enum class Schedule {
  /// The exact adaptive executor: the work set N[moved] ∪ N[edited] as a
  /// list while small, as a sweep once large, skipped when empty. The name
  /// is the reference semantics it reproduces: every round behaves as if
  /// every node were evaluated. The CLIs' default.
  Dense,
  /// Oracle: the same work set, always walked as an ascending list (every
  /// vertex when the whole graph is marked). `--schedule active`.
  Active,
  /// Oracle: the textbook synchronous daemon. Every round reloads the whole
  /// mirror and evaluates every node; nothing is marked or skipped.
  Sweep,
};

[[nodiscard]] constexpr std::string_view toString(Schedule s) noexcept {
  switch (s) {
    case Schedule::Dense:
      return "dense";
    case Schedule::Active:
      return "active";
    case Schedule::Sweep:
      return "sweep";
  }
  return "?";
}

/// Splits `count` work items into `parts` contiguous ranges of near-equal
/// total weight. Returns parts+1 boundary indices with bounds[0] == 0 and
/// bounds[parts] == count; range p is [bounds[p], bounds[p+1]). Boundary p
/// closes at the first item where the weight prefix reaches p/parts of the
/// total, so a part exceeds the ideal share by at most one item's weight
/// (a single huge item may leave later parts empty — that is the balanced
/// answer). Zero total weight falls back to equal-count splitting.
///
/// The parallel executor uses weight(v) = deg(v)+1 — the cost of one rule
/// evaluation is dominated by the neighbor scan — so skewed (power-law)
/// graphs no longer pin one worker on all the hubs while the rest idle.
template <typename WeightFn>
[[nodiscard]] std::vector<std::size_t> weightedBoundaries(std::size_t count,
                                                          std::size_t parts,
                                                          WeightFn&& weightOf) {
  if (parts == 0) parts = 1;
  std::vector<std::size_t> bounds(parts + 1, count);
  bounds[0] = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < count; ++i) total += weightOf(i);
  if (total == 0) {
    const std::size_t chunk = (count + parts - 1) / parts;
    for (std::size_t p = 1; p < parts; ++p) {
      bounds[p] = std::min(count, p * chunk);
    }
    return bounds;
  }
  std::uint64_t acc = 0;
  std::size_t p = 1;
  for (std::size_t i = 0; i < count && p < parts; ++i) {
    acc += weightOf(i);
    while (p < parts && acc * parts >= p * total) {
      bounds[p] = i + 1;
      ++p;
    }
  }
  return bounds;
}

}  // namespace selfstab::engine

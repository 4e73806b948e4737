// Metric primitives: lock-free counters, gauges, fixed-bucket histograms.
//
// The paper's claims are stated in counts — rounds to stabilize, moves,
// beacons heard per round — so the executors need cheap instruments they
// can bump on hot paths. All three instruments are plain std::atomic
// aggregates: SyncRunner's team workers (threads > 1) observe the same
// Histogram from many threads with relaxed atomics and no mutex, and a
// reader can snapshot at any time. Values only ever aggregate (no labels,
// no time series); Registry (registry.hpp) owns naming and export.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace selfstab::telemetry {

/// Monotonically increasing count (events, moves, beacons).
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (cache sizes, imbalance ratios).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }

  void add(double delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// One thread's samples for a Histogram (Histogram::tally), added in one
/// step by Histogram::add: the same bucket counts as observing each, and
/// the same sum while the samples are integers whose total stays below
/// 2^53, which double adds exactly in any order.
struct HistogramTally {
  std::vector<std::uint64_t> counts;  ///< per bucket, +Inf last; may be empty
  double sum = 0.0;
};

/// Fixed-bucket histogram in the Prometheus style: `bounds` are inclusive
/// upper edges of the finite buckets, and an implicit +Inf bucket catches
/// the rest. Buckets are chosen at construction and never change, so
/// observe() is a search plus two relaxed atomic adds — safe from any
/// number of threads concurrently.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
    if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
      throw std::invalid_argument("histogram bucket bounds must be sorted");
    }
  }

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v) noexcept {
    counts_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Counts v into `t` as observe(v) would count it here, without atomics.
  void tally(HistogramTally& t, double v) const {
    if (t.counts.empty()) t.counts.resize(counts_.size());
    ++t.counts[bucketOf(v)];
    t.sum += v;
  }

  /// Adds `t`'s samples in one step and empties it.
  void add(HistogramTally& t) noexcept {
    for (std::size_t i = 0; i < t.counts.size(); ++i) {
      if (t.counts[i] > 0) {
        counts_[i].fetch_add(t.counts[i], std::memory_order_relaxed);
      }
      t.counts[i] = 0;
    }
    if (t.sum != 0.0) sum_.fetch_add(t.sum, std::memory_order_relaxed);
    t.sum = 0.0;
  }

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }

  /// Per-bucket (non-cumulative) counts; the final entry is the +Inf bucket.
  [[nodiscard]] std::vector<std::uint64_t> counts() const {
    std::vector<std::uint64_t> out;
    out.reserve(counts_.size());
    for (const auto& c : counts_) {
      out.push_back(c.load(std::memory_order_relaxed));
    }
    return out;
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
    return total;
  }

  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] std::size_t bucketOf(double v) const noexcept {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    return static_cast<std::size_t>(it - bounds_.begin());  // +Inf = last
  }

  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<double> sum_{0.0};
};

/// Default buckets for wall-clock durations in seconds: 1-2-5 decades from
/// 1µs to 10s. Round evaluation on small graphs lands in the microsecond
/// decades; 500-node beacon rounds in the millisecond ones.
[[nodiscard]] inline std::vector<double> durationBuckets() {
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 10.0; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2 * decade);
    bounds.push_back(5 * decade);
  }
  bounds.push_back(10.0);
  return bounds;
}

/// Default buckets for small cardinalities (neighbor cache sizes, degrees).
[[nodiscard]] inline std::vector<double> sizeBuckets() {
  return {0, 1, 2, 4, 8, 16, 32, 64, 128, 256};
}

/// Default buckets for large cardinalities (event-queue depth, which grows
/// with the node count): powers of 4 so million-node simulations still
/// resolve instead of piling into +Inf.
[[nodiscard]] inline std::vector<double> depthBuckets() {
  std::vector<double> bounds{0};
  for (double b = 1; b <= 16'777'216.0; b *= 4.0) bounds.push_back(b);
  return bounds;
}

/// Default buckets for fractions in [0, 1] (per-round activation fraction).
/// Log-spaced toward 0 because near-converged rounds activate a vanishing
/// share of nodes — exactly the regime the work-set executor targets.
[[nodiscard]] inline std::vector<double> fractionBuckets() {
  return {0,    0.001, 0.002, 0.005, 0.01, 0.02,
          0.05, 0.1,   0.2,   0.5,   1.0};
}

}  // namespace selfstab::telemetry

// Deterministic, seedable random number generation.
//
// Every randomized component in this library takes an explicit 64-bit seed so
// that all simulations and experiments are reproducible bit-for-bit. We avoid
// std::mt19937 / std::uniform_int_distribution because their outputs are not
// guaranteed identical across standard library implementations.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace selfstab {

/// SplitMix64: a tiny, high-quality 64-bit mixer. Used both as a stand-alone
/// generator for seeding and as a stateless hash of (seed, counter) pairs.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit output; advances the internal state.
  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Stateless mix of an arbitrary number of 64-bit words into one word.
/// Useful for deriving per-(seed, round, node) values deterministically.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// For a fixed `a`, a bijection of `b`: distinct words hash apart. Chained,
/// it keys a draw by several words, e.g. (seed, purpose, node, time).
constexpr std::uint64_t hashCombine(std::uint64_t a, std::uint64_t b) noexcept {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Uniform double in [0, 1) from the top 53 bits of `x`: a keyed draw when
/// x is a hash of its key.
constexpr double unitReal(std::uint64_t x) noexcept {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Xoshiro256**: fast general-purpose PRNG with 256-bit state.
/// Seeded via SplitMix64 per the authors' recommendation.
class Rng {
 public:
  using result_type = std::uint64_t;

  constexpr explicit Rng(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept { return next(); }

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Requires bound > 0.
  /// Lemire-style rejection keeps the result unbiased.
  std::uint64_t below(std::uint64_t bound) noexcept {
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    // Width computed modularly in unsigned space: correct even for the
    // full-int64 span, where it wraps to 0 (meaning "any 64-bit value").
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    const std::uint64_t offset = span == 0 ? next() : below(span);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
  }

  /// Uniform double in [0, 1).
  double real() noexcept { return unitReal(next()); }

  /// Uniform double in [lo, hi).
  double real(double lo, double hi) noexcept { return lo + (hi - lo) * real(); }

  /// Bernoulli trial with success probability p.
  bool chance(double p) noexcept { return real() < p; }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    shuffle(std::span<T>(items));
  }

  /// Pick a uniformly random element. Requires a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) noexcept {
    return items[static_cast<std::size_t>(below(items.size()))];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
};

}  // namespace selfstab

namespace selfstab::graph {
// Convenience aliases: callers working with the graph layer routinely need
// its RNG; let them write graph::Rng without reaching into the root
// namespace.
using selfstab::hashCombine;
using selfstab::mix64;
using selfstab::Rng;
using selfstab::SplitMix64;
}  // namespace selfstab::graph

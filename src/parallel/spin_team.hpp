// The process's one fork-join team: every parallel pass runs on it.
//
// Each parallel pass is one dispatch (the paper's rounds have every node
// read one snapshot): per busy round and fixpoint sweep of the round
// executor, per band pass of the unit-disk build, per vertex pass of
// graph::isConnected and the verifiers, per lookahead window of the beacon
// simulator — thousands per simulated second, each with tens of
// microseconds of work. Each dispatch names its width (workersFor); the first
// one wider than one sizes parallel::team() to the CPUs of the caller's
// affinity mask and starts the helpers. Waking a parked thread costs tens of
// microseconds on a virtual machine, so helpers spin between dispatches and
// park on rest() or after a quiet kIdleSpin; a short budget does not do (a
// helper whose vCPU the host preempts parks, and every later dispatch pays a
// wake-up: a simulator run went from 1.0 to 2.2 s with 500 µs). The caller is
// worker 0 and index i runs on worker i % size(), the same thread in every
// dispatch, so a worker's data stays in one core's caches. Each helper is
// pinned to its own CPU other than the caller's at start (left to the
// scheduler, two spinners sometimes shared a CPU: 4.2 of 9.2 CPU-seconds idle
// in a 2.3 s run that takes 1.0 s pinned). A waiter that has spun for a while
// yields between checks.
//
// One dispatch runs on the team at a time: one made from inside a job, or
// by another thread while one is in flight, runs its indices inline, with
// the same results. Preconditions: a child forked after the helpers
// started must not dispatch wider than one (it has no helpers), and a
// width above size() runs on size() threads.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "parallel/workers.hpp"

namespace selfstab::parallel {

class SpinTeam {
 public:
  /// A team sized to availableCpus() by its first dispatch wider than one.
  SpinTeam() = default;

  /// A team of `workers` (>= 1): the caller of each dispatch plus
  /// workers - 1 helpers, started by the first dispatch wider than one.
  explicit SpinTeam(std::size_t workers)
      : size_(std::clamp<std::size_t>(workers, 1, kWidthMask)) {}

  SpinTeam(const SpinTeam&) = delete;
  SpinTeam& operator=(const SpinTeam&) = delete;

  ~SpinTeam() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      shutdown_.store(true);
    }
    wake_.notify_all();
    for (auto& thread : threads_) thread.join();
  }

  /// The caller plus the helpers; 0 for a team that no dispatch wider than
  /// one has sized yet.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Dispatches that ran on the team (not inline) so far.
  [[nodiscard]] std::uint64_t dispatches() const noexcept {
    return ticket_.load() >> kWidthBits;
  }

  /// Runs job(i) once for every i < width and returns when all have
  /// returned: index i on worker i % size(), worker 0 being the calling
  /// thread, so min(width, size()) threads take part. Everything the
  /// caller wrote before run() is visible to the jobs, and everything the
  /// jobs wrote is visible to the caller afterwards. If a job throws, run()
  /// rethrows the first exception once every index has run; inline (width
  /// 1, a nested or concurrent dispatch) at once.
  void run(std::size_t width, const std::function<void(std::size_t)>& job) {
    if (width <= 1 || busy_.exchange(true, std::memory_order_acq_rel)) {
      for (std::size_t i = 0; i < width; ++i) job(i);
      return;
    }
    // If starting fails, busy_ stays set and every later dispatch runs
    // inline.
    if (parked_.empty()) start();
    last_ = std::this_thread::get_id();
    const std::size_t active = std::min(width, size_);
    job_ = &job;
    width_ = width;
    resting_.store(false, std::memory_order_relaxed);
    pending_.store(active - 1, std::memory_order_relaxed);
    const std::uint64_t generation = (ticket_.load() >> kWidthBits) + 1;
    // seq_cst: pairs with the parking check.
    ticket_.store((generation << kWidthBits) | active);
    // Wake the helpers only when one this dispatch needs has parked (seq_cst
    // loads: pair with the parking check); others may stay parked.
    if (std::any_of(parked_.begin() + 1, parked_.begin() + active,
                    [](const auto& parked) { return parked.load(); })) {
      const std::lock_guard<std::mutex> lock(mutex_);
      wake_.notify_all();
    }
    runShare(0);
    for (std::size_t spins = 0;
         pending_.load(std::memory_order_acquire) != 0; ++spins) {
      relax(spins);
    }
    const std::exception_ptr error = std::exchange(error_, {});
    busy_.store(false, std::memory_order_release);
    if (error != nullptr) std::rethrow_exception(error);
  }

  /// Lets the helpers park now instead of spinning out their budget: call
  /// it when no dispatch is coming soon. The next run() wakes them. Does
  /// nothing while another dispatch is in flight or when the last one came
  /// from another thread, which may dispatch again soon.
  void rest() noexcept {
    if (busy_.exchange(true, std::memory_order_acq_rel)) return;
    if (last_ == std::this_thread::get_id()) resting_.store(true);
    busy_.store(false, std::memory_order_release);
  }

 private:
  /// The CPUs of the affinity mask other than the caller's, in order.
  static std::vector<int> helperCpus() {
    std::vector<int> cpus;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return cpus;
    const int here = sched_getcpu();
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask) && c != here) cpus.push_back(c);
    }
    return cpus;
  }

  /// One wait step: a plain re-check at first (no PAUSE hint, which makes a
  /// KVM guest's vCPU exit to the host), then a yield per check.
  static void relax(std::size_t spins) noexcept {
    constexpr std::size_t kSpinsBeforeYield = 4096;
    if (spins < kSpinsBeforeYield) {
      std::atomic_signal_fence(std::memory_order_seq_cst);
    } else {
      std::this_thread::yield();
    }
  }

  /// Sizes the team if no size was given and starts its helpers.
  void start() {
    if (size_ == 0) size_ = std::min<std::size_t>(availableCpus(), kWidthMask);
    parked_ = std::vector<std::atomic<bool>>(size_);
    threads_.reserve(size_ - 1);
    const std::vector<int> cpus = helperCpus();
    for (std::size_t t = 1; t < size_; ++t) {
      threads_.emplace_back([this, t] { loop(t); });
      if (t <= cpus.size()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[t - 1], &one);
        pthread_setaffinity_np(threads_.back().native_handle(), sizeof(one),
                               &one);
      }
    }
  }

  /// Worker t's indices of the current dispatch: t, t + size(), ...
  void runShare(std::size_t worker) {
    for (std::size_t i = worker; i < width_; i += size_) {
      try {
        (*job_)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (error_ == nullptr) error_ = std::current_exception();
      }
    }
  }

  void loop(std::size_t worker) {
    std::uint64_t done = 0;  // generation of the last dispatch it ran
    for (;;) {
      const std::uint64_t ticket = awaitDispatch(worker, done);
      if (ticket == 0) return;  // shut down
      done = ticket >> kWidthBits;
      runShare(worker);
      pending_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  /// Spins until a dispatch after generation `done` takes `worker` in,
  /// parking on rest() or after kIdleSpin; returns its ticket, or 0 on
  /// shutdown. A dispatch that does not take the worker in finishes without
  /// it, so the worker cannot miss one that does.
  std::uint64_t awaitDispatch(std::size_t worker, std::uint64_t done) {
    const auto wanted = [&](std::uint64_t ticket) {
      return (ticket >> kWidthBits) != done && (ticket & kWidthMask) > worker;
    };
    using Clock = std::chrono::steady_clock;
    const auto deadline = Clock::now() + kIdleSpin;
    for (std::size_t spins = 0;; ++spins) {
      const std::uint64_t ticket = ticket_.load(std::memory_order_acquire);
      if (wanted(ticket)) return ticket;
      if (shutdown_.load(std::memory_order_acquire)) return 0;
      if (resting_.load(std::memory_order_relaxed)) break;
      if ((spins & 255) == 255 && Clock::now() >= deadline) break;
      relax(spins);
    }
    std::unique_lock<std::mutex> lock(mutex_);
    parked_[worker].store(true);  // seq_cst: run() sees it or we its ticket
    wake_.wait(lock,
               [&] { return shutdown_.load() || wanted(ticket_.load()); });
    parked_[worker].store(false);
    return shutdown_.load() ? 0 : ticket_.load(std::memory_order_acquire);
  }

  /// How long a helper spins for the next dispatch before it parks on its
  /// own (rest() parks it at once).
  static constexpr std::chrono::milliseconds kIdleSpin{20};
  /// A ticket is (generation << kWidthBits) | workers taking part, so a
  /// helper reads both in one load.
  static constexpr unsigned kWidthBits = 16;
  static constexpr std::uint64_t kWidthMask = (1U << kWidthBits) - 1;
  // size_, parked_'s length and last_ change only under busy_.
  std::size_t size_ = 0;
  std::thread::id last_;  // caller of the last dispatch on the helpers
  std::mutex mutex_;
  std::condition_variable wake_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t width_ = 0;
  std::exception_ptr error_;
  std::atomic<std::uint64_t> ticket_{0};
  std::atomic<std::size_t> pending_{0};
  std::vector<std::atomic<bool>> parked_;  // per worker: waiting on wake_
  std::atomic<bool> busy_{false};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> resting_{false};
  std::vector<std::thread> threads_;
};

/// The process's one team. Building it reads nothing and starts no thread:
/// its first dispatch wider than one sizes it and starts the helpers.
inline SpinTeam& team() {
  static SpinTeam shared;
  return shared;
}

/// Runs body(begin, end) over [0, count) in contiguous blocks of at most
/// `block` items (0 counts as 1), dispatched at width `workers`, each block
/// claimed by whichever worker is free; inline as one call over the whole
/// range at one worker. Blocks are disjoint, so a body that writes only
/// its own items' slots needs no locking.
template <typename Body>
void forEachBlock(std::size_t workers, std::size_t count, std::size_t block,
                  const Body& body) {
  if (workers <= 1) {
    body(std::size_t{0}, count);
    return;
  }
  if (block == 0) block = 1;
  std::atomic<std::size_t> next{0};
  team().run(workers, [&](std::size_t) {
    for (std::size_t b = next.fetch_add(block, std::memory_order_relaxed);
         b < count; b = next.fetch_add(block, std::memory_order_relaxed)) {
      body(b, std::min(b + block, count));
    }
  });
}

}  // namespace selfstab::parallel

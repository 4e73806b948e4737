// The fork-join team every parallel pass runs on.
//
// The round executor dispatches once per busy round and once per fixpoint
// sweep; the unit-disk build once per band pass; graph::isConnected and the
// analysis verifiers once per vertex pass; the beacon simulator once per
// lookahead window — thousands of times per simulated second, each with
// tens of microseconds of work. A dispatch that wakes parked threads costs
// tens of microseconds on a virtual machine (a parked vCPU is woken through
// the hypervisor), so the team keeps its helpers spinning between
// dispatches and parks them only when the owner calls rest() or after a
// quiet spell of kIdleSpin. A short spin budget does not do: a helper whose
// vCPU the host preempts wakes past its deadline and parks, and every
// dispatch after that pays a wake-up again (measured on the simulator: a
// run in two went from 1.0 to 2.2 s that way with a 500 µs budget). The
// calling thread is worker 0, so a team of k runs k threads in all, and
// worker t is the same thread in every dispatch (work kept on one worker
// stays in that core's caches).
//
// Each helper is pinned to its own CPU of the process's affinity mask,
// skipping the CPU the caller runs on when the team is built: left to the
// scheduler, two spinning threads sometimes shared one CPU while another
// stayed idle, and every dispatch then waited out a time slice (measured:
// 4.2 of 9.2 CPU-seconds idle in a 2.3 s run that takes 1.0 s pinned). A
// waiter that has spun for a while yields between checks, so a team that
// shares its CPUs with other work still makes progress.
//
// teamFor sizes a team for one pass (null at one worker, where the pass
// runs inline), and forEachBlock splits a range into blocks that the
// team's workers claim as they free up.
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
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace selfstab::parallel {

class SpinTeam {
 public:
  /// A team of `workers` (>= 1): the caller plus workers - 1 helpers.
  explicit SpinTeam(std::size_t workers) {
    const std::size_t helpers = workers > 1 ? workers - 1 : 0;
    threads_.reserve(helpers);
    const std::vector<int> cpus = helperCpus();
    for (std::size_t t = 1; t <= helpers; ++t) {
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

  [[nodiscard]] std::size_t size() const noexcept {
    return threads_.size() + 1;
  }

  /// Runs job(t) once for every worker t — t = 0 on the calling thread —
  /// and returns when all have returned. Everything the caller wrote before
  /// run() is visible to the job, and everything the jobs wrote is visible
  /// to the caller afterwards. If a job throws, run() rethrows the first
  /// exception once every worker is done.
  void run(const std::function<void(std::size_t)>& job) {
    job_ = &job;
    resting_.store(false, std::memory_order_relaxed);
    pending_.store(threads_.size(), std::memory_order_relaxed);
    generation_.fetch_add(1);  // seq_cst: pairs with the parking check
    if (parked_.load() > 0) {
      const std::lock_guard<std::mutex> lock(mutex_);
      wake_.notify_all();
    }
    try {
      job(0);
    } catch (...) {
      record(std::current_exception());
    }
    for (std::size_t spins = 0;
         pending_.load(std::memory_order_acquire) != 0; ++spins) {
      relax(spins);
    }
    if (error_ != nullptr) std::rethrow_exception(std::exchange(error_, {}));
  }

  /// Lets the helpers park now instead of spinning out their budget: call
  /// it when no dispatch is coming soon. The next run() wakes them.
  void rest() noexcept { resting_.store(true, std::memory_order_relaxed); }

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

  void record(std::exception_ptr error) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (error_ == nullptr) error_ = std::move(error);
  }

  void loop(std::size_t index) {
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t current = awaitDispatch(seen);
      if (current == seen) return;  // shut down
      seen = current;
      try {
        (*job_)(index);
      } catch (...) {
        record(std::current_exception());
      }
      pending_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  /// Spins until the generation moves past `seen`, parking on rest() or
  /// after kIdleSpin; returns `seen` itself on shutdown.
  std::uint64_t awaitDispatch(std::uint64_t seen) {
    using Clock = std::chrono::steady_clock;
    const auto deadline = Clock::now() + kIdleSpin;
    for (std::size_t spins = 0;; ++spins) {
      const std::uint64_t current = generation_.load(std::memory_order_acquire);
      if (current != seen) return current;
      if (shutdown_.load(std::memory_order_acquire)) return seen;
      if (resting_.load(std::memory_order_relaxed)) break;
      if ((spins & 255) == 255 && Clock::now() >= deadline) break;
      relax(spins);
    }
    std::unique_lock<std::mutex> lock(mutex_);
    parked_.fetch_add(1);  // seq_cst: run() either sees it or we see its bump
    wake_.wait(lock, [&] {
      return shutdown_.load() || generation_.load() != seen;
    });
    parked_.fetch_sub(1);
    return shutdown_.load() ? seen : generation_.load(std::memory_order_acquire);
  }

  /// How long a helper spins for the next dispatch before it parks on its
  /// own (rest() parks it at once).
  static constexpr std::chrono::milliseconds kIdleSpin{20};
  std::mutex mutex_;
  std::condition_variable wake_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::exception_ptr error_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> parked_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> resting_{false};
  std::vector<std::thread> threads_;
};

/// A team of `workers` for one whole-graph pass, or null at one worker,
/// where forEachBlock runs inline on the calling thread.
inline std::unique_ptr<SpinTeam> teamFor(std::size_t workers) {
  return workers > 1 ? std::make_unique<SpinTeam>(workers) : nullptr;
}

/// Runs body(begin, end) over [0, count) in contiguous blocks of at most
/// `block` items (0 counts as 1), each block claimed by whichever worker
/// is free; inline as one call over the whole range when `team` is null.
/// Blocks are disjoint, so a body that writes only its own items' slots
/// needs no locking.
template <typename Body>
void forEachBlock(SpinTeam* team, std::size_t count, std::size_t block,
                  const Body& body) {
  if (team == nullptr) {
    body(std::size_t{0}, count);
    return;
  }
  if (block == 0) block = 1;
  std::atomic<std::size_t> next{0};
  team->run([&](std::size_t) {
    for (std::size_t b = next.fetch_add(block, std::memory_order_relaxed);
         b < count; b = next.fetch_add(block, std::memory_order_relaxed)) {
      body(b, std::min(b + block, count));
    }
  });
}

}  // namespace selfstab::parallel
